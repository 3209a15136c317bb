"""Crash-fault injection, the fixed crash matrix, the watchdog drill and
the recovery verifier."""

import contextlib
import itertools
import time
from unittest import mock

import pytest

from repro.errors import RecoveryVerifyError, ReproError, ServiceError
from repro.invariants import verify_recovery
from repro.lp.compile import load_solver
from repro.net.schedule import AvailabilityWindow, LinkSchedule
from repro.service import chaos
from repro.service.chaos import ChaosMonkey, InjectedCrash
from repro.service.config import ServiceConfig
from repro.service.slotloop import TransferBroker
from tests.test_broker_machine import (
    CORRUPTIONS, CRASH_CASES, CRASH_MODELS, DEFAULT_CRASH_POINTS, BrokerMachine, power_loss,
    drive, solver_down,
)

#: The scripted drills' broker (WAL fsync on) and three-slot workload.
DRILL = dict(datacenters=4, capacity=50.0, seed=3, max_deadline=8, checkpoint_every=1)


def drill_batches():
    sizes = [[6.0, 9.0, 4.0, 11.0], [8.0, 3.0, 10.0, 5.0], [7.0, 2.0, 12.0, 6.0]]
    return [
        [{"id": f"d{b}-{i}", "source": i % 3, "destination": 3 - (i % 3),
          "size_gb": size, "deadline_slots": 3} for i, size in enumerate(row)]
        for b, row in enumerate(sizes)
    ]


def _wal_broker(tmp_path, **overrides):
    return TransferBroker(ServiceConfig(**{
        **DRILL, "tick_seconds": 0.0,
        "checkpoint_dir": str(tmp_path / "ckpt"), **overrides,
    }))


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


# -- the crash matrix and the corruptions, through the broker machine -------


@contextlib.contextmanager
def drill_machine():  # the broker machine on the drill's broker
    machine = BrokerMachine()
    try:
        machine.start((dict(DRILL), []))
        yield machine
        machine.books_hold()
    finally:
        machine.teardown()


@pytest.fixture(scope="module")
def crash_matrix():  # every case under every model: crash, resume, finish
    points = {}
    for case, model in itertools.product(CRASH_CASES, CRASH_MODELS):
        with drill_machine() as machine:
            batches = iter(drill_batches())
            points.setdefault(case, {})[model] = machine.crash_with(case, model, batches)
            for batch in batches:
                machine.step(batch)
    return points


def test_crash_matrix_recovers_exactly(crash_matrix):
    assert set(crash_matrix) == set(DEFAULT_CRASH_POINTS) | {"admits.unsynced"}
    for point, models in crash_matrix.items():
        assert set(models) == set(CRASH_MODELS)
        for model, entry in models.items():
            # Power loss before the first fsync leaves an empty directory:
            # a fresh start, with nothing for the verifier to check.
            assert entry["verifier"]["ok"] if entry["resumed"] else entry["lost_bytes"]
    # The journal's boundaries are in the matrix.  A death before its
    # write leaves nothing to cut; from the write up to the snapshot's
    # rename the journal runs ahead of the surviving snapshot's mark.
    cut = {p: e["process"]["recovery"]["journal_cut_bytes"]
           for p, e in crash_matrix.items()}
    assert cut["journal.pre_write"] == 0
    for point in ("journal.pre_fsync", "journal.post_fsync", "checkpoint.pre_write",
                  "checkpoint.pre_fsync", "checkpoint.pre_rename"):
        assert cut[point] > 0, point
    assert cut["checkpoint.post_rename"] == cut["commit.pre_ack"] == 0


def test_unsynced_admits_replay_after_a_kill_and_vanish_with_the_power(crash_matrix):
    """What each crash model does to slot 0's written-but-unsynced admits,
    as the retry of slot 0's batch after the resume finds them."""
    models = crash_matrix["admits.unsynced"]
    # kill -9: the page cache keeps the bytes, the resubmits attach.
    assert models["process"]["lost_bytes"] == 0
    assert models["process"]["recovery"]["replayed_records"] == 4
    assert models["process"]["resubmits"] == {"pending": 0, "attached": 4, "decided": 0}
    # Power loss, at a frame boundary and inside a frame: nobody was told
    # about them, so they are gone and the resubmits are fresh.
    for model in ("power", "power-torn"):
        entry = models[model]
        assert entry["lost_bytes"] > 0 and entry["recovery"]["replayed_records"] == 0
        assert entry["resubmits"] == {"pending": 4, "attached": 0, "decided": 0}
    assert models["power"]["recovery"]["torn_bytes"] == 0
    assert models["power-torn"]["recovery"]["torn_bytes"] == 5
    # The fsync taps belong to the commit record: a cut there loses the
    # slot's admits *and* its commit under power loss before the fsync,
    # and nothing after it.
    assert crash_matrix["wal.pre_fsync"]["power"]["lost_bytes"] > 0
    assert crash_matrix["wal.post_fsync"]["power"]["lost_bytes"] == 0


def test_torn_and_corrupt_drill():
    """Each corruption, two slots in: the resume reports what it repaired."""
    for name in CORRUPTIONS:
        with drill_machine() as machine:
            first, second, third = drill_batches()
            machine.step(first)
            machine.step(second)
            assert name in machine.damageable()
            machine.damage_with(name)
            machine.step(third)


# -- crash points ----------------------------------------------------------


def test_a_pending_answer_survives_power_loss(tmp_path):
    """``status -> pending`` is a reveal: it syncs first, so the cut keeps it."""
    broker = _wal_broker(tmp_path)
    fields = {"source": 0, "destination": 2, "size_gb": 4.0, "deadline_slots": 3}
    broker.submit(dict(fields, id="asked"))
    broker.submit(dict(fields, id="also-covered"))
    assert broker.status("asked") == {"state": "pending"}
    broker.submit(dict(fields, id="unasked"))
    assert power_loss(broker.store.wal) > 0
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


def test_a_resume_syncs_the_log_it_inherited_before_answering_from_it(tmp_path):
    """A kill between a commit's write and its fsync leaves the commit in
    the page cache.  The restarted broker replays it and answers from it,
    so it syncs first: before, a power cut then lost decisions a client
    had already read, and the next start decided them again."""
    broker = _wal_broker(tmp_path)
    first, second, _ = drill_batches()
    drive(broker, first)
    chaos.MONKEY.arm("wal.pre_fsync")
    with pytest.raises(InjectedCrash):
        drive(broker, second)
    resumed = _wal_broker(tmp_path)
    read = {f["id"]: resumed.status(f["id"])["decision"] for f in second}
    assert power_loss(resumed.store.wal, durable=broker.store.wal.bytes_durable) == 0
    again = _wal_broker(tmp_path)
    assert {cid: again.decisions.get(cid) for cid in read} == read


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


def test_watchdog_drill_degrades_and_rearms(tmp_path):
    """Slot 0 escalates into an injected 0.5 s stall: the watchdog gives up
    after 0.05 s, finishes the slot fast-lane-only and bumps ``degraded``.
    Once the backoff window passes and the stalled solve has been reaped,
    the LP lane re-arms.  A solver that raises takes the same exit (lane
    ``degraded``) and the very next slot is the LP's again."""
    broker = _wal_broker(tmp_path, watchdog_timeout_s=0.05)
    scheduler = broker.scheduler
    scheduler.escalate_utilization = 1e-9  # every slot escalates
    batches = drill_batches()
    batches += [[dict(f, id="e" + f["id"]) for f in batch] for batch in batches]
    chaos.MONKEY.arm("lp.escalate", action="hang", at=1, param=0.5)
    # The first escalation imports the solver (the HiGHS backend and
    # HiGHS's extension) before its watchdog starts: one-time start-up,
    # not the slot's wait, so it is paid here, off the clock.
    load_solver()
    started = time.perf_counter()
    drive(broker, batches[0])
    assert time.perf_counter() - started < 0.5 and scheduler.degraded >= 1
    # The slot did not wait for the stalled solve: it is still running.
    assert scheduler._zombie is not None and scheduler._zombie.is_alive()
    drive(broker, batches[1])  # the stalled solve still sleeps: no waiting on it
    assert scheduler.degraded + scheduler.lp_skipped >= 2
    if scheduler._zombie is not None:  # wait out the stalled solve
        scheduler._zombie.join(timeout=10)
        assert not scheduler._zombie.is_alive()
    escalations = scheduler.escalations
    drive(broker, batches[2])  # the backoff's second slot: still fast lane
    assert scheduler.escalations == escalations and scheduler.lp_skipped == 2
    drive(broker, batches[3])
    assert scheduler.escalations > escalations
    with mock.patch.object(scheduler, "_escalate_hook", solver_down):
        assert {r["lane"] for r in drive(broker, batches[4]).values()} == {"degraded"}
    escalations = scheduler.escalations
    drive(broker, batches[5])
    assert scheduler.escalations > escalations
    assert set(broker.decisions) == {f["id"] for batch in batches for f in batch}
    # The degrade is SLO-visible: budget 0 means the window breaches.
    slo = broker.slo.evaluate(emit=False)["degraded_slots"]
    assert slo["value"] >= 1.0 and slo["ok"] is False


# -- disk-full on the intake path ------------------------------------------


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


@pytest.fixture
def decided(tmp_path):
    """A WAL broker one slot in, with one admitted transfer."""
    broker = _wal_broker(tmp_path)
    drive(broker, [{"id": "v-1", "source": 0, "destination": 2, "size_gb": 4.0,
                    "deadline_slots": 3}])
    return broker


def a_used_cell(broker):
    src, dst = broker.state.ledger.used_links()[0]
    return src, dst, min(broker.state.ledger.usage(src, dst).volumes)


def test_verifier_passes_healthy_broker(decided):
    report = verify_recovery(decided)
    assert report["ok"]
    assert set(report["checks"]) == {"cells", "deadlines", "bill", "decisions"}


def darkening(src, dst, slot):
    """A schedule on which link ``(src, dst)`` is dark up to ``slot``."""
    return LinkSchedule([AvailabilityWindow(src, dst, slot + 1, 99)])


@pytest.mark.parametrize("defect, check, detail", [
    (lambda b: b.counts.update(admitted=2), "decisions", "1 decisions, but tallies"),
    (lambda b: setattr(b, "next_slot", 0), "decisions", "next_slot=0"),  # would re-bill
    (lambda b: b.state._charged.update({b.state.ledger.used_links()[0]: 9.0}), "bill",
     "but its period peak is"),
    # What the verifier let through before the kernel: capacity, windows, deadlines.
    (lambda b: b.state.ledger.record(*a_used_cell(b), 60.0), "cells", "over capacity 50.0"),
    (lambda b: setattr(b.state, "link_schedule", darkening(*a_used_cell(b))),
     "cells", "outside its availability windows"),
    (lambda b: b.decisions["v-1"].update(completion_slot=99), "deadlines",
     "file v-1 completes at slot 99, after its deadline"),
], ids=["double-charge", "rewound-clock", "ledger-drift", "over-capacity", "dark-cell",
        "late-completion"])
def test_verifier_catches(decided, defect, check, detail):
    defect(decided)
    assert detail in verify_recovery(decided, strict=False)["checks"][check]["detail"]
    with pytest.raises(RecoveryVerifyError, match=check):
        verify_recovery(decided)


def heavy_slot(tmp_path):
    """Four 40 GB files 0->1 through one snapshotted slot; returns a loaded cell."""
    broker = _wal_broker(tmp_path)
    drive(broker, [{"id": f"big-{i}", "source": 0, "destination": 1,
                    "size_gb": 40.0, "deadline_slots": 6} for i in range(4)])
    return a_used_cell(broker)


@pytest.mark.parametrize("restart, sentence", [
    ({"capacity": 10.0}, r"over capacity 10\.0"),
    ({"link_schedule_path": "darkened.json"}, "outside its availability windows"),
], ids=["shrunk-capacity", "darkened-window"])
def test_a_resume_refuses_books_the_new_config_breaks(tmp_path, monkeypatch, restart, sentence):
    cell = heavy_slot(tmp_path)
    monkeypatch.chdir(tmp_path)
    darkening(*cell).to_file("darkened.json")
    with pytest.raises(RecoveryVerifyError, match=(
        rf"cells \(link \({cell[0]},{cell[1]}\) carries \d+\.\d+ GB at slot {cell[2]}, {sentence}"
    )):
        _wal_broker(tmp_path, **restart)
