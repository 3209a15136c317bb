"""Generated crash-and-resume sequences: one client op log drives a live
WAL broker (which crashes, loses power and has its directory damaged) and
an uninterrupted twin.  After every step the invariant kernel finds nothing
on the live broker and the twin keeps the same books; after every resume
each answer a client read reads the same.  ``BROKER_MACHINE_EXAMPLES`` sets
the depth (CI: 200); tests/test_chaos.py runs the fixed crash matrix."""

import dataclasses
import itertools
import os
import shutil
import tempfile
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
    run_state_machine_as_test,
)

from repro.core.replan import ReplanningPostcardScheduler
from repro.core.scheduler import PostcardScheduler
from repro.errors import SolverError
from repro.heuristic.fastlane import FastLaneScheduler
from repro.invariants import twin, verify_recovery
from repro.net.schedule import AvailabilityWindow, LinkSchedule
from repro.service import chaos
from repro.service.config import ServiceConfig
from repro.service.slotloop import SlotFailed, TransferBroker
from repro.service.store import SnapshotStore
from tests.test_wal import flip_middle_byte

EXAMPLES = int(os.environ.get("BROKER_MACHINE_EXAMPLES", "6"))

#: Every boundary a crash could land on in a slot's durable path.
DEFAULT_CRASH_POINTS = (
    "wal.pre_write", "wal.pre_fsync", "wal.post_fsync",
    "journal.pre_write", "journal.pre_fsync", "journal.post_fsync",
    "checkpoint.pre_write", "checkpoint.pre_fsync",
    "checkpoint.pre_rename", "checkpoint.post_rename",
    "commit.pre_ack",
)

#: ``name -> (point, hit)``, hits counted from arming.  Every point dies
#: on its second hit (for ``wal.pre_fsync`` / ``post_fsync`` that is a
#: slot commit: admits do not reach them); ``admits.unsynced`` dies on the
#: fifth WAL write: after four admits of one batch, none of them synced.
CRASH_CASES = {
    **{point: (point, 2) for point in DEFAULT_CRASH_POINTS},
    "admits.unsynced": ("wal.pre_write", 5),
}

#: How the machine dies.  ``process``: every written byte survives (the
#: page cache outlives ``kill -9``).  ``power``: the open log is cut back
#: to its durable watermark; ``power-torn``: into the first unsynced frame.
#: Recovery drops journal bytes past the snapshot's mark under every model.
CRASH_MODELS = ("process", "power", "power-torn")


def power_loss(wal, torn=False, durable=0):
    """Cut ``wal``'s file back to what is on disk, as losing power would:
    what this process synced, or the ``durable`` bytes an earlier one did
    (``torn``: 5 bytes into the first unsynced frame).  Returns bytes lost."""
    keep = max(durable, wal.bytes_durable)
    if torn and wal.bytes_written > keep:
        keep += 5  # inside the 8-byte header: a "short header" tear
    os.truncate(wal.path, keep)
    return wal.bytes_written - keep


def tear(path):
    """Append half a record: the classic ``kill -9`` mid-append artifact."""
    with open(path, "ab") as fh:
        fh.write(b"\x99\x00\x00\x00\xde\xad\xbe\xefhalf a rec")


#: ``name -> (damage(store), snapshot generations it needs, the
#: recovery-info keys that must then read non-zero)``.
CORRUPTIONS = {
    "torn_wal_tail": (
        lambda store: tear(store.wal_path(store.wal_generations()[-1])), 0, ["torn_bytes"],
    ),
    # Past the newest snapshot's mark: cut.
    "torn_journal_tail": (lambda store: tear(store.journal_path), 0, ["journal_cut_bytes"]),
    # A compaction died mid-write and left snapshot-<g+1>.json.tmp behind.
    "torn_tmp": (
        lambda store: store.snapshot_path(store.snapshot_generations()[-1] + 1)
        .with_suffix(".json.tmp").write_text('{"version": 3, "kind": "pos'),
        1, ["stray_tmp"],
    ),
    # The checksum must reject the newest snapshot: fall back to generation
    # K-1, cut the journal back to *its* mark, replay both generations' logs.
    "corrupt_snapshot": (
        lambda store: flip_middle_byte(store.snapshot_path(store.snapshot_generations()[-1])),
        2, ["fallbacks", "journal_cut_bytes"],
    ),
}


@st.composite
def configs(draw):
    """A drawn broker: scheduler, billing period, snapshot cadence,
    capacity, windows."""
    config = dict(
        datacenters=4, seed=3, max_deadline=4, wal_fsync=False,
        scheduler=draw(st.sampled_from(["hybrid", "postcard-replan"])),
        capacity=float(draw(st.integers(12, 60))),
        period_slots=draw(st.sampled_from([0, 5, 6, 7, 8])),
        checkpoint_every=draw(st.integers(1, 3)),
    )
    links = draw(st.lists(st.permutations(range(4)).map(lambda p: tuple(p[:2])),
                          max_size=3, unique=True))
    windows = []
    for src, dst in links:  # up, dark for 1-3 slots, up again
        start, stop = draw(st.integers(0, 4)), draw(st.integers(1, 3))
        if start:
            windows.append(AvailabilityWindow(src, dst, 0, start))
        windows.append(AvailabilityWindow(src, dst, start + stop, start + stop + 200))
    return config, windows


def solver_down():
    raise SolverError("injected solver failure")


def drive(broker, batch):
    """Submit ``batch`` (a failed id a resume re-drove is already queued)
    and run one slot: what the client reads."""
    for fields in batch:
        assert broker.submit(dict(fields))[0] != "decided"
    return {p.client_id: record for p, record in broker.process_slot()}


def logged(answer):
    """``answer`` as the decision log keeps it: the submit reply's measured
    ``wait_s`` and ``decision_s`` are in no log."""
    return {k: v for k, v in answer.items() if k not in ("wait_s", "decision_s")}


class BrokerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="broker-machine-")
        self.ops = []  # the client op log: (slot the twin ran it at, batch)
        self.answered = {}  # every decision a client read from the live broker
        self.owed = []  # ids whose slot failed: the next batch resubmits them
        self.serial = itertools.count()
        self.corrupted = set()  # snapshot generations a damage step broke
        #: WAL path -> bytes on disk as earlier processes synced them (a
        #: process's log object starts at bytes_durable 0).
        self.durable = {}

    @initialize(drawn=configs())
    def start(self, drawn):
        fields, windows = drawn
        if windows:
            fields["link_schedule_path"] = os.path.join(self.root, "windows.json")
            LinkSchedule(windows).to_file(fields["link_schedule_path"])
        config = ServiceConfig(tick_seconds=0.0, **fields)
        self.live_config = dataclasses.replace(config, checkpoint_dir=f"{self.root}/live")
        self.live = TransferBroker(self.live_config)
        self.twin = TransferBroker(dataclasses.replace(config, checkpoint_dir=f"{self.root}/twin"))

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def draw_batch(self, data):
        batch, self.owed = list(self.owed), []
        for (src, dst, *_), size, deadline in data.draw(st.lists(st.tuples(
            st.permutations(range(4)), st.integers(1, 30), st.integers(1, 4),
        ), min_size=1, max_size=4)):
            batch.append({"id": f"m{next(self.serial)}", "source": src, "destination": dst,
                          "size_gb": float(size), "deadline_slots": deadline})
        return batch

    def step(self, batch, monkey=None):
        """One op on both brokers; ``monkey`` arms the live broker's crash points."""
        self.ops.append((self.twin.next_slot, batch))
        drive(self.twin, batch)
        with mock.patch.object(chaos, "MONKEY", monkey or chaos.MONKEY):
            self.answered.update(drive(self.live, batch))

    def die(self, model):
        """The live process dies as ``model`` says; returns the bytes lost."""
        wal = self.live.store.wal
        path = str(wal.path)
        on_disk = self.durable[path] = max(self.durable.get(path, 0), wal.bytes_durable)
        if model == "process":
            return 0
        return power_loss(wal, torn=model == "power-torn", durable=on_disk)

    def resume(self):
        """Rebuild the live broker from its directory alone — committing
        the plans its log recorded, so no lane may plan — then re-drive
        the whole op log as idempotent retries: a slot runs only where the
        recovered clock has not passed it."""
        planning = mock.Mock(side_effect=AssertionError("recovery planned a slot"))
        with mock.patch.object(FastLaneScheduler, "plan_slot", planning), \
                mock.patch.object(PostcardScheduler, "plan_slot", planning), \
                mock.patch.object(ReplanningPostcardScheduler, "plan_slot", planning):
            self.live = TransferBroker(self.live_config)
        read_before = dict(self.answered)
        taken = Counter(pending=0, attached=0, decided=0)
        for slot, batch in self.ops:
            for fields in batch:
                outcome, value = self.live.submit(dict(fields))
                taken[outcome] += 1
                if outcome == "decided":
                    self.answered[fields["id"]] = value
            if self.live.next_slot <= slot:
                assert self.live.next_slot == slot
                self.answered.update((p.client_id, r) for p, r in self.live.process_slot())
        assert twin(self.twin, self.live) == []
        for cid, record in read_before.items():
            assert self.live.decisions.get(cid) == logged(record), cid
        return {"resumed": self.live.resumed, "resubmits": dict(taken),
                "recovery": self.live.recovery_info, "verifier": self.live.verifier_report}

    @rule(data=st.data())
    def slot(self, data):
        self.step(self.draw_batch(data))

    def crash_with(self, case, model, batches):
        """Arm ``case``, run batches until it fires, die as ``model`` says, resume."""
        monkey = chaos.ChaosMonkey()
        point, hit = CRASH_CASES[case]
        monkey.arm(point, action="raise", at=hit)
        for batch in itertools.islice(batches, 2 * self.live_config.checkpoint_every + 3):
            try:
                self.step(batch, monkey)
            except chaos.InjectedCrash:
                lost = self.die(model)
                return dict(self.resume(), lost_bytes=lost)
        pytest.fail(f"{case} never fired")

    @rule(model=st.sampled_from(CRASH_MODELS))
    def die_idle(self, model):  # between two steps, at no crash point
        self.die(model)
        self.resume()

    @rule(data=st.data(), model=st.sampled_from(CRASH_MODELS))
    def crash(self, data, model):
        # Without fsync there is no checkpoint.pre_fsync boundary to die on.
        case = data.draw(st.sampled_from(sorted(set(CRASH_CASES) - {"checkpoint.pre_fsync"})))
        self.crash_with(case, model, iter(lambda: self.draw_batch(data), None))

    def damageable(self):
        generations = self.live.store.snapshot_generations()
        return [name for name, (_, needs, _) in CORRUPTIONS.items()
                if len(generations) >= needs
                and (needs < 2 or not self.corrupted & set(generations[-2:]))]

    def damage_with(self, name):
        damage, _, expect = CORRUPTIONS[name]
        self.die("process")
        store = SnapshotStore(self.live_config.checkpoint_dir)
        if name == "corrupt_snapshot":
            self.corrupted.add(store.snapshot_generations()[-1])
        damage(store)
        entry = self.resume()
        assert all(entry["recovery"][key] for key in expect), (name, entry)
        return entry

    @precondition(lambda self: self.ops)
    @rule(data=st.data())
    def damage(self, data):
        self.damage_with(data.draw(st.sampled_from(self.damageable())))

    @rule(data=st.data())
    def fail_slot(self, data):
        batch = self.draw_batch(data)
        self.ops.append((self.twin.next_slot, batch))
        for broker in (self.twin, self.live):
            with mock.patch.object(broker.scheduler, "on_slot", lambda slot, requests: 1 / 0):
                with pytest.raises(SlotFailed):
                    drive(broker, batch)
            assert {broker.status(f["id"])["state"] for f in batch} == {"unknown"}
        self.owed = batch

    @precondition(lambda self: self.live_config.scheduler == "hybrid")
    @rule(data=st.data())
    def solver_error(self, data):
        batch = self.draw_batch(data)
        down = dict(_escalate_hook=solver_down, escalate_utilization=1e-9)
        with mock.patch.multiple(self.twin.scheduler, **down), \
                mock.patch.multiple(self.live.scheduler, **down):
            self.step(batch)
        for broker in (self.twin, self.live):
            assert {broker.decisions[f["id"]]["lane"] for f in batch} == {"degraded"}

    @invariant()
    def books_hold(self):
        report = verify_recovery(self.live, strict=False)
        assert report["ok"], report
        assert twin(self.twin, self.live) == []


def test_generated_sequences_keep_the_invariants():
    run_state_machine_as_test(BrokerMachine, settings=settings(
        max_examples=EXAMPLES, stateful_step_count=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    ))
