"""Scripted fault injection for the broker's durability machinery.

The WAL, the snapshot store, and the slot loop expose *crash points* —
named boundaries a real crash could land on (before a write, between
write and fsync, before and after a rename, after the commit record but
before the ack).  :class:`ChaosMonkey` arms actions at those points:

``raise``
    Throw :class:`InjectedCrash` (a ``BaseException``, so no library
    ``except ReproError`` handler can accidentally swallow it).  The
    in-process drill harness uses this: the broker object is discarded
    exactly as a dead process's memory would be, and recovery rebuilds
    from disk alone.
``kill``
    ``os._exit(137)`` — a genuine no-cleanup process death, for
    subprocess drills (armed via the ``REPRO_CHAOS`` environment
    variable, e.g. ``REPRO_CHAOS=kill:wal.pre_fsync:3``).
``hang``
    Sleep ``param`` seconds at the point — the injected stall the
    solver watchdog must degrade around.
``enospc``
    Raise ``OSError(ENOSPC)`` — disk full (at ``wal.pre_write``: the
    append is refused before a byte lands).

A *torn* write needs no action of its own: it only exists because the
machine died mid-call — the crash matrix's ``power-torn`` model.

Crash-point names currently wired::

    wal.pre_write                                       (wal.append)
    wal.pre_fsync | wal.post_fsync                      (wal.sync)
    journal.pre_write | .pre_fsync | .post_fsync        (decision journal)
    checkpoint.pre_write | checkpoint.pre_fsync
    checkpoint.pre_rename | checkpoint.post_rename      (atomic_write)
    commit.pre_ack                                      (slot loop)
    lp.escalate                                         (hybrid watchdog)

The module also hosts the scripted drills the ``repro chaos`` CLI and
CI run: :func:`run_crash_matrix` (every crash point, recovered state
must equal an uninterrupted run's) and :func:`run_watchdog_drill`
(an injected LP hang, then a solver error, must each degrade to
fast-lane within the slot and re-arm afterwards).
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ServiceError, SolverError
from repro.obs import registry as obs


class InjectedCrash(BaseException):
    """An armed ``raise`` crash point fired.

    Deliberately **not** a :class:`~repro.errors.ReproError` — the
    point of an injected crash is that *nothing* on the failure path
    handles it, exactly like SIGKILL.  Only the drill harness, which
    knows it armed the chaos, may catch it.
    """

    def __init__(self, point: str):
        super().__init__(f"injected crash at {point}")
        self.point = point


#: Actions a crash point accepts.
_ACTIONS = ("raise", "kill", "hang", "enospc")


@dataclass
class _Arm:
    """One armed injection: fire ``action`` on the ``at``-th hit."""

    point: str
    action: str
    at: int = 1
    param: float = 0.0
    hits: int = 0


class ChaosMonkey:
    """Holds the armed script and serves the hook calls.

    A process-global instance (:data:`MONKEY`) backs the module-level
    :func:`crashpoint` function the durability layer calls; everything
    is a near-free no-op while nothing is armed.
    """

    def __init__(self) -> None:
        self._arms: Dict[str, _Arm] = {}

    def arm(
        self, point: str, action: str = "raise", at: int = 1, param: float = 0.0
    ) -> None:
        """Arm ``action`` at ``point``, firing on the ``at``-th hit."""
        if action not in _ACTIONS:
            known = ", ".join(_ACTIONS)
            raise ServiceError(f"unknown chaos action {action!r}; one of: {known}")
        if at < 1:
            raise ServiceError(f"chaos 'at' must be >= 1, got {at}")
        self._arms[point] = _Arm(point=point, action=action, at=at, param=param)

    def disarm(self, point: Optional[str] = None) -> None:
        """Drop one armed point, or the whole script when ``None``."""
        if point is None:
            self._arms.clear()
        else:
            self._arms.pop(point, None)

    def crashpoint(self, point: str) -> None:
        """Called at a crash boundary; fires the armed action, if due."""
        arm = self._arms.get(point)
        if arm is None:
            return
        arm.hits += 1
        if arm.hits != arm.at:
            return
        obs.counter("service.chaos.fired", point=point, action=arm.action)
        if arm.action == "hang":
            time.sleep(arm.param)
            return
        if arm.action == "kill":
            os._exit(137)
        if arm.action == "enospc":
            raise OSError(errno.ENOSPC, "No space left on device (injected)")
        raise InjectedCrash(point)

    def configure_from_env(self, env_var: str = "REPRO_CHAOS") -> int:
        """Arm from ``REPRO_CHAOS=action:point[:at[:param]],...``.

        The subprocess-drill channel: a daemon started with e.g.
        ``REPRO_CHAOS=kill:checkpoint.pre_rename:2`` dies, for real, on
        its second compaction rename.  Returns the number of arms set.
        """
        script = os.environ.get(env_var, "")
        count = 0
        for clause in filter(None, (c.strip() for c in script.split(","))):
            parts = clause.split(":")
            if len(parts) < 2:
                raise ServiceError(
                    f"bad {env_var} clause {clause!r}; "
                    "want action:point[:at[:param]]"
                )
            action, point = parts[0], parts[1]
            at = int(parts[2]) if len(parts) > 2 else 1
            param = float(parts[3]) if len(parts) > 3 else 0.0
            self.arm(point, action=action, at=at, param=param)
            count += 1
        return count


#: The process-global monkey the service's hook calls go through.
MONKEY = ChaosMonkey()


def crashpoint(point: str) -> None:
    """Module-level tap: :meth:`ChaosMonkey.crashpoint` on :data:`MONKEY`."""
    MONKEY.crashpoint(point)


def reset() -> None:
    """Disarm everything (test/drill teardown)."""
    MONKEY.disarm()


# -- scripted drills -------------------------------------------------------

#: The crash-point matrix the acceptance drill covers.  Each entry
#: names where the "process" dies; recovery after every one of them
#: must reproduce the uninterrupted run exactly.
DEFAULT_CRASH_POINTS = (
    "wal.pre_write", "wal.pre_fsync", "wal.post_fsync",
    "journal.pre_write", "journal.pre_fsync", "journal.post_fsync",
    "checkpoint.pre_write", "checkpoint.pre_fsync",
    "checkpoint.pre_rename", "checkpoint.post_rename",
    "commit.pre_ack",
)

#: Matrix rows, ``name -> (point, hit)``.  Every point dies on its second
#: hit (for ``wal.pre_fsync`` / ``post_fsync`` that is a slot commit:
#: admits do not reach them); the extra row dies before slot 0's commit
#: record, with a whole batch of admits written and none of them synced.
CRASH_CASES = {
    **{point: (point, 2) for point in DEFAULT_CRASH_POINTS},
    "admits.unsynced": ("wal.pre_write", 5),
}

#: How the machine dies.  ``process``: every written byte survives (the
#: page cache outlives ``kill -9``).  ``power``: the open log is cut back
#: to its durable watermark; ``power-torn``: into the first unsynced
#: frame instead.  The journal needs no cut of its own — recovery drops
#: whatever lies past the snapshot's mark under every model.
CRASH_MODELS = ("process", "power", "power-torn")


def power_loss(wal, torn: bool = False) -> int:
    """Cut ``wal``'s file to ``bytes_durable``, as losing power would
    (``torn``: 5 bytes into the first unsynced frame).  Returns bytes lost."""
    keep = wal.bytes_durable
    if torn and wal.bytes_written > keep:
        keep += 5  # inside the 8-byte header: a "short header" tear
    os.truncate(wal.path, keep)
    return wal.bytes_written - keep


def _drill_batches() -> List[List[Dict[str, Any]]]:
    """The deterministic workload every drill run replays (3 slots)."""
    sizes = [[6.0, 9.0, 4.0, 11.0], [8.0, 3.0, 10.0, 5.0], [7.0, 2.0, 12.0, 6.0]]
    return [
        [
            {"id": f"d{b}-{i}", "source": i % 3, "destination": 3 - (i % 3),
             "size_gb": size, "deadline_slots": 3}
            for i, size in enumerate(row)
        ]
        for b, row in enumerate(sizes)
    ]


def _drill_broker(checkpoint_dir: str, **overrides):
    from repro.service.config import ServiceConfig
    from repro.service.slotloop import TransferBroker

    return TransferBroker(ServiceConfig(
        datacenters=4, capacity=50.0, seed=3, max_deadline=8, tick_seconds=0.0,
        checkpoint_dir=checkpoint_dir, checkpoint_every=1, wal=True, **overrides,
    ))


def _drive(broker, batches, answered: Optional[Dict[str, Any]] = None) -> Dict[str, int]:
    """Submit + process each batch as one slot, like a scripted client.

    Resubmitting an id the broker already decided (or still holds
    queued) is a client's idempotent retry after a crash.  Returns how
    the submits were taken (``pending`` = fresh, ``attached``, ``decided``);
    ``answered`` collects every decision a client would have read.
    """
    taken = {"pending": 0, "attached": 0, "decided": 0}
    answered = {} if answered is None else answered
    for batch in batches:
        for fields in batch:
            outcome, value = broker.submit(dict(fields))
            taken[outcome] += 1
            if outcome == "decided":
                answered[fields["id"]] = value
        if broker.queue.depth:
            answered.update((p.client_id, rec) for p, rec in broker.process_slot())
    return taken


def _books(broker) -> Dict[str, Any]:
    """The comparable face of a broker: decisions, ledger, bill, clock."""
    from repro.core.checkpoint import state_to_payload

    state = state_to_payload(broker.state)  # cells exactly as a snapshot holds them
    return {
        "decisions": {cid: rec["decision"] for cid, rec in broker.decisions.items()},
        "charged": state["charged"],
        "ledger": state["usage"],
        "cost_per_slot": round(broker.state.current_cost_per_slot(), 9),
        "next_slot": broker.next_slot,
    }


def _reference_books(base_dir: str, name: str, batches) -> Dict[str, Any]:
    reference = _drill_broker(os.path.join(base_dir, name))
    _drive(reference, batches)
    return _books(reference)


def run_crash_matrix(base_dir: str) -> Dict[str, Any]:
    """The acceptance drill: crash at every point, recover, compare.

    For each row of :data:`CRASH_CASES` under each of
    :data:`CRASH_MODELS`: drive the scripted workload into an armed
    ``InjectedCrash``, discard the broker exactly where it lands (cutting
    its log the way the model says), rebuild a broker from the checkpoint
    directory alone, and finish with client-idempotent retries.  The
    recovered books (every decision, ledger cell, the bill, the clock)
    must equal an uninterrupted reference run's, *and* every decision a
    client read before the crash must read the same after it.  The
    recovery verifier runs inside every resume.

    Returns the drill report (``points[name][model]``, ``ok`` overall).
    """
    batches = _drill_batches()
    expected = _reference_books(base_dir, "reference", batches)
    report: Dict[str, Any] = {"kind": "crash-matrix", "points": {}, "ok": True}
    for name, (point, hit) in CRASH_CASES.items():
        for model in CRASH_MODELS:
            ckpt = os.path.join(base_dir, f"{name}-{model}".replace(".", "_"))
            broker = _drill_broker(ckpt)
            MONKEY.arm(point, action="raise", at=hit)
            crashed, answered = False, {}
            try:
                _drive(broker, batches, answered)
            except InjectedCrash:
                crashed = True
            finally:
                MONKEY.disarm(point)
            lost = 0
            if model != "process":
                lost = power_loss(broker.store.wal, torn=model == "power-torn")
            del broker  # the "dead process": nothing survives but the disk

            entry = _resume_and_compare(ckpt, batches, expected, answered)
            entry.update(crashed=crashed, lost_bytes=lost)
            entry["ok"] = crashed and entry["books_equal"] and entry["answers_kept"]
            report["ok"] &= entry["ok"]
            report["points"].setdefault(name, {})[model] = entry
    return report


def _resume_and_compare(ckpt: str, batches, expected, answered=None) -> Dict[str, Any]:
    """Rebuild a broker from ``ckpt`` alone, finish the workload, compare
    books — and what clients read before (``answered``) with after."""
    resumed = _drill_broker(ckpt)
    after: Dict[str, Any] = {}
    taken = _drive(resumed, batches, after)
    got = _books(resumed)
    entry = {
        "resumed": resumed.resumed,
        "books_equal": got == expected,
        "answers_kept": all(after.get(c) == rec for c, rec in (answered or {}).items()),
        "resubmits": taken,
        "recovery": dict(resumed.recovery_info),
        "verifier": resumed.verifier_report,
    }
    if not entry["books_equal"]:
        entry.update(got=got, expected=expected)
    return entry


def _tear(path) -> None:
    """Append half a record: the classic ``kill -9`` mid-append artifact."""
    with open(path, "ab") as fh:
        fh.write(b"\x99\x00\x00\x00\xde\xad\xbe\xefhalf a rec")


def _flip_middle_byte(path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


#: Corruption drill: ``name -> (damage(store), the recovery-info keys
#: that must then read non-zero)``.
_CORRUPTIONS = {
    "torn_wal_tail": (
        lambda store: _tear(store.wal_path(store.wal_generations()[-1])),
        ["torn_bytes"],
    ),
    # Past the newest snapshot's mark: cut.
    "torn_journal_tail": (lambda store: _tear(store.journal_path), ["journal_cut_bytes"]),
    # A compaction died mid-write and left snapshot-<g+1>.json.tmp behind.
    "torn_tmp": (
        lambda store: store.snapshot_path(store.snapshot_generations()[-1] + 1)
        .with_suffix(".json.tmp").write_text('{"version": 3, "kind": "pos'),
        ["stray_tmp"],
    ),
    # The checksum must reject the newest snapshot: fall back to generation
    # K-1, cut the journal back to *its* mark, replay both generations' logs.
    "corrupt_snapshot": (
        lambda store: _flip_middle_byte(
            store.snapshot_path(store.snapshot_generations()[-1])
        ),
        ["fallbacks", "journal_cut_bytes"],
    ),
}


def run_torn_and_corrupt_drill(base_dir: str) -> Dict[str, Any]:
    """Corruption drill: torn WAL/journal tail, torn tmp, corrupt snapshot.

    Each :data:`_CORRUPTIONS` case damages the checkpoint directory two
    healthy slots into the workload; the resume that follows must report
    the damage it repaired and land on books identical to the
    uninterrupted reference.
    """
    from repro.service.store import SnapshotStore

    batches = _drill_batches()
    expected = _reference_books(base_dir, "c-reference", batches)
    report: Dict[str, Any] = {"kind": "corruption", "cases": {}, "ok": True}
    for name, (damage, expect) in _CORRUPTIONS.items():
        ckpt = os.path.join(base_dir, f"c-{name}")
        _drive(_drill_broker(ckpt), batches[:2])  # two slots, then the process is gone
        damage(SnapshotStore(ckpt, wal=True))
        entry = _resume_and_compare(ckpt, batches, expected)
        missing = [key for key in expect if not entry["recovery"][key]]
        if missing:
            entry["note"] = f"recovery did not report {missing}"
        report["ok"] &= entry["books_equal"] and not missing
        report["cases"][name] = entry
    return report


def run_watchdog_drill(
    base_dir: str,
    hang_seconds: float = 0.5,
    timeout_s: float = 0.05,
) -> Dict[str, Any]:
    """The LP-does-not-answer drill: hang it, then fail it; degrade, re-arm.

    Slot 1 escalates into an injected ``hang_seconds`` stall; the
    watchdog must give up after ``timeout_s``, finish the slot
    fast-lane-only (every client still gets a decision within the
    tick), and bump ``service.degraded``.  Later slots, once the
    backoff window passes and the stalled solve has been reaped, must
    escalate through the LP again.  Then the solver *raises* on a slot:
    same exit (lane ``degraded``), and the very next slot is the LP's.
    """
    broker = _drill_broker(
        os.path.join(base_dir, "watchdog"),
        watchdog_timeout_s=timeout_s, watchdog_backoff_slots=1,
    )
    # Force every slot onto the escalation path: the drill is about
    # what happens when the LP stalls, not whether pressure arises.
    broker.scheduler.escalate_utilization = 1e-9

    batches = _drill_batches()
    MONKEY.arm("lp.escalate", action="hang", at=1, param=hang_seconds)
    t0 = time.perf_counter()
    try:
        _drive(broker, batches[:1])
    finally:
        MONKEY.disarm("lp.escalate")
    first_slot_s = time.perf_counter() - t0
    degraded_after_first = broker.scheduler.degraded

    # The stalled solve is still sleeping; the next slot must not wait
    # on it (backoff window + zombie guard both force fast-lane-only).
    _drive(broker, batches[1:2])
    degraded_or_skipped = broker.scheduler.degraded + broker.scheduler.lp_skipped

    # Let the zombie finish, then the LP path must genuinely re-arm.
    time.sleep(hang_seconds + 0.1)
    escalations_before = broker.scheduler.escalations
    _drive(broker, batches[2:3])
    rearmed = broker.scheduler.escalations > escalations_before

    def solver_down() -> None:
        raise SolverError("injected solver failure")

    batches += [[dict(f, id="e" + f["id"]) for f in batch] for batch in batches[:2]]
    hook, broker.scheduler._escalate_hook = broker.scheduler._escalate_hook, solver_down
    _drive(broker, batches[3:4])
    broker.scheduler._escalate_hook = hook
    error_lanes = {broker.decisions[f["id"]]["lane"] for f in batches[3]}
    escalations_before = broker.scheduler.escalations
    _drive(broker, batches[4:5])
    error_rearmed = broker.scheduler.escalations > escalations_before

    decided = {
        cid: rec["decision"] for cid, rec in broker.decisions.items()
    }
    all_ids = [f["id"] for batch in batches for f in batch]
    report = {
        "kind": "watchdog",
        "first_slot_seconds": round(first_slot_s, 4),
        "degraded_slots": broker.scheduler.degraded,
        "lp_skipped_slots": broker.scheduler.lp_skipped,
        "rearmed": rearmed,
        "solver_error": {"lanes": sorted(error_lanes), "rearmed": error_rearmed},
        "all_decided": all(cid in decided for cid in all_ids),
        "slo": broker.slo.evaluate(emit=False).get("degraded_slots", {}),
        "ok": (
            degraded_after_first >= 1
            and first_slot_s < hang_seconds
            and degraded_or_skipped >= 2
            and rearmed
            and error_lanes == {"degraded"}
            and error_rearmed
            and all(cid in decided for cid in all_ids)
        ),
    }
    return report
