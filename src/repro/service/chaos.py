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
``torn``
    (mangle points only) Truncate the buffer mid-record before it hits
    the file — a torn write.  Drills pair it with a ``raise`` at the
    following crash point, since a real torn write only exists because
    the process died mid-call.
``enospc``
    (mangle points only) Raise ``OSError(ENOSPC)`` — disk full.

Crash-point names currently wired::

    wal.pre_write | wal.pre_fsync | wal.post_fsync      (wal.append)
    wal.append                                          (mangle tap)
    journal.pre_write | .pre_fsync | .post_fsync        (decision journal)
    checkpoint.pre_write | checkpoint.pre_fsync
    checkpoint.pre_rename | checkpoint.post_rename      (atomic_write)
    commit.pre_ack                                      (slot loop)
    lp.escalate                                         (hybrid watchdog)

The module also hosts the scripted drills the ``repro chaos`` CLI and
CI run: :func:`run_crash_matrix` (every crash point, recovered state
must equal an uninterrupted run's) and :func:`run_watchdog_drill`
(injected LP hang must degrade to fast-lane within the slot and re-arm
afterwards).
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ServiceError
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


#: Actions crash points accept / mangle points accept.
_CRASH_ACTIONS = ("raise", "kill", "hang")
_MANGLE_ACTIONS = ("torn", "enospc")


@dataclass
class _Arm:
    """One armed injection: fire ``action`` on the ``at``-th hit."""

    point: str
    action: str
    at: int = 1
    param: float = 0.0
    hits: int = 0
    fired: int = 0


class ChaosMonkey:
    """Holds the armed script and serves the hook calls.

    A process-global instance (:data:`MONKEY`) backs the module-level
    :func:`crashpoint` / :func:`mangle` functions the durability layer
    calls; everything is a near-free no-op while nothing is armed.
    """

    def __init__(self) -> None:
        self._arms: Dict[str, _Arm] = {}

    @property
    def armed(self) -> bool:
        return bool(self._arms)

    def arm(
        self, point: str, action: str = "raise", at: int = 1, param: float = 0.0
    ) -> None:
        """Arm ``action`` at ``point``, firing on the ``at``-th hit."""
        if action not in _CRASH_ACTIONS + _MANGLE_ACTIONS:
            known = ", ".join(_CRASH_ACTIONS + _MANGLE_ACTIONS)
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

    def fired(self, point: str) -> int:
        """How many times ``point``'s action has fired."""
        arm = self._arms.get(point)
        return arm.fired if arm else 0

    # -- the hooks the durability layer calls ------------------------------

    def crashpoint(self, point: str) -> None:
        """Called at a crash boundary; fires the armed action, if due."""
        arm = self._arms.get(point)
        if arm is None or arm.action not in _CRASH_ACTIONS:
            return
        arm.hits += 1
        if arm.hits != arm.at:
            return
        arm.fired += 1
        obs.counter("service.chaos.fired", point=point, action=arm.action)
        if arm.action == "hang":
            time.sleep(arm.param)
            return
        if arm.action == "kill":
            os._exit(137)
        raise InjectedCrash(point)

    def mangle(self, point: str, data: bytes) -> bytes:
        """Called around a buffer write; corrupts or refuses it, if due."""
        arm = self._arms.get(point)
        if arm is None or arm.action not in _MANGLE_ACTIONS:
            return data
        arm.hits += 1
        if arm.hits != arm.at:
            return data
        arm.fired += 1
        obs.counter("service.chaos.fired", point=point, action=arm.action)
        if arm.action == "enospc":
            raise OSError(errno.ENOSPC, "No space left on device (injected)")
        keep = int(arm.param) if arm.param else max(1, len(data) // 2)
        return data[:keep]

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


def mangle(point: str, data: bytes) -> bytes:
    """Module-level tap: :meth:`ChaosMonkey.mangle` on :data:`MONKEY`."""
    return MONKEY.mangle(point, data)


def reset() -> None:
    """Disarm everything (test/drill teardown)."""
    MONKEY.disarm()


# -- scripted drills -------------------------------------------------------

#: The crash-point matrix the acceptance drill covers.  Each entry
#: names where the "process" dies; recovery after every one of them
#: must reproduce the uninterrupted run exactly.
DEFAULT_CRASH_POINTS = (
    "wal.pre_write",
    "wal.pre_fsync",
    "wal.post_fsync",
    "journal.pre_write",
    "journal.pre_fsync",
    "journal.post_fsync",
    "checkpoint.pre_write",
    "checkpoint.pre_fsync",
    "checkpoint.pre_rename",
    "checkpoint.post_rename",
    "commit.pre_ack",
)


def _drill_batches() -> List[List[Dict[str, Any]]]:
    """The deterministic workload every drill run replays (3 slots)."""
    sizes = [
        [6.0, 9.0, 4.0, 11.0],
        [8.0, 3.0, 10.0, 5.0],
        [7.0, 2.0, 12.0, 6.0],
    ]
    batches = []
    for b, row in enumerate(sizes):
        batches.append([
            {
                "id": f"d{b}-{i}",
                "source": i % 3,
                "destination": 3 - (i % 3),
                "size_gb": size,
                "deadline_slots": 3,
            }
            for i, size in enumerate(row)
        ])
    return batches


def _drill_config(checkpoint_dir: str):
    from repro.service.config import ServiceConfig

    return ServiceConfig(
        datacenters=4,
        capacity=50.0,
        seed=3,
        max_deadline=8,
        tick_seconds=0.0,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=1,
        wal=True,
    )


def _drive(broker, batches: List[List[Dict[str, Any]]]) -> None:
    """Submit + process each batch as one slot, like a scripted client.

    Resubmitting an id the broker already decided (or still holds
    pending) is the idempotent-retry path a real client takes after a
    crash; both outcomes are treated as accepted here.
    """
    for batch in batches:
        for fields in batch:
            try:
                broker.submit(dict(fields))
            except ServiceError:
                # Already pending from before the crash — fine.
                pass
        if broker.queue.depth:
            broker.process_slot()


def _books(broker) -> Dict[str, Any]:
    """The comparable face of a broker: decisions, ledger, bill, clock."""
    ledger = {}
    for src, dst in broker.state.ledger.used_links():
        usage = broker.state.ledger.usage(src, dst)
        ledger[f"{src},{dst}"] = {
            str(s): round(v, 9) for s, v in usage.volumes.items() if v > 1e-12
        }
    return {
        "decisions": {
            cid: rec["decision"] for cid, rec in broker.decisions.items()
        },
        "charged": {
            f"{s},{d}": round(v, 9)
            for (s, d), v in broker.state.charged_snapshot().items()
            if v > 1e-12
        },
        "ledger": ledger,
        "cost_per_slot": round(broker.state.current_cost_per_slot(), 9),
        "next_slot": broker.next_slot,
    }


def run_crash_matrix(base_dir: str) -> Dict[str, Any]:
    """The acceptance drill: crash at every point, recover, compare.

    For each crash point: run the scripted workload against a
    WAL-enabled broker with an ``InjectedCrash`` armed on the second
    hit of that point, discard the broker mid-flight
    exactly where the crash lands, rebuild a fresh broker from the
    checkpoint directory alone, finish the workload with
    client-idempotent retries, and require the recovered books (every
    decision, every ledger cell, the bill, the clock) to equal an
    uninterrupted reference run's.  The recovery verifier runs inside
    every resume (the broker refuses to serve otherwise).

    Returns the drill report (one entry per point, ``ok`` overall).
    """
    from repro.service.slotloop import TransferBroker

    batches = _drill_batches()

    reference = TransferBroker(_drill_config(os.path.join(base_dir, "reference")))
    _drive(reference, batches)
    expected = _books(reference)

    report: Dict[str, Any] = {"kind": "crash-matrix", "points": {}, "ok": True}
    for point in DEFAULT_CRASH_POINTS:
        ckpt = os.path.join(base_dir, point.replace(".", "_"))
        broker = TransferBroker(_drill_config(ckpt))
        MONKEY.arm(point, action="raise", at=2)
        crashed = False
        try:
            _drive(broker, batches)
        except InjectedCrash:
            crashed = True
        finally:
            MONKEY.disarm(point)
        del broker  # the "dead process": nothing survives but the disk

        entry = _resume_and_compare(ckpt, batches, expected)
        entry["crashed"] = crashed
        report["ok"] &= crashed and entry["books_equal"]
        report["points"][point] = entry
    return report


def _resume_and_compare(ckpt: str, batches, expected: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild a broker from ``ckpt`` alone, finish the workload, compare books."""
    from repro.service.slotloop import TransferBroker

    resumed = TransferBroker(_drill_config(ckpt))
    _drive(resumed, batches)
    got = _books(resumed)
    entry = {
        "resumed": resumed.resumed,
        "books_equal": got == expected,
        "recovery": dict(resumed.recovery_info),
        "verifier": resumed.verifier_report,
    }
    if not entry["books_equal"]:
        entry.update(got=got, expected=expected)
    return entry


def run_torn_and_corrupt_drill(base_dir: str) -> Dict[str, Any]:
    """Corruption drill: torn WAL/journal tail, torn tmp, corrupt snapshot.

    Four scripted corruptions of the on-disk checkpoint directory — each
    applied after a healthy partial run, each followed by a resume that
    must land on books identical to the uninterrupted reference:

    * ``torn_wal_tail`` — the last WAL record is half-written (the
      classic kill -9 mid-append artifact);
    * ``torn_journal_tail`` — the same artifact at the end of the
      decision journal, past the newest snapshot's mark: cut;
    * ``torn_tmp`` — a ``*.json.tmp`` from a mid-compaction death is
      left lying around;
    * ``corrupt_snapshot`` — the newest snapshot generation's bytes are
      flipped, forcing checksum-fallback to generation K-1, a journal
      cut back to *its* mark, and WAL replay across both generations.
    """
    from repro.service.slotloop import TransferBroker
    from repro.service.store import SnapshotStore

    batches = _drill_batches()
    reference = TransferBroker(_drill_config(os.path.join(base_dir, "c-reference")))
    _drive(reference, batches)
    expected = _books(reference)
    report: Dict[str, Any] = {"kind": "corruption", "cases": {}, "ok": True}

    def partial_run(name: str) -> SnapshotStore:
        """Two healthy slots under ``c-<name>``, then the process is gone."""
        ckpt = os.path.join(base_dir, f"c-{name}")
        broker = TransferBroker(_drill_config(ckpt))
        _drive(broker, batches[:2])
        del broker
        return SnapshotStore(ckpt, wal=True)

    def finish(name: str, store: SnapshotStore, *expect: str) -> None:
        entry = _resume_and_compare(str(store.directory), batches, expected)
        missing = [key for key in expect if not entry["recovery"][key]]
        if missing:
            entry["note"] = f"recovery did not report {missing}"
        report["ok"] &= entry["books_equal"] and not missing
        report["cases"][name] = entry

    # Torn tails: garbage half-record bytes after the last intact frame.
    store = partial_run("torn-wal")
    with open(store.wal_path(max(store.wal_generations())), "ab") as fh:
        fh.write(b"\x99\x00\x00\x00\xde\xad\xbe\xefhalf a rec")
    finish("torn_wal_tail", store, "torn_bytes")
    store = partial_run("torn-journal")
    with open(store.journal_path, "ab") as fh:
        fh.write(b"\x99\x00\x00\x00\xde\xad\xbe\xefhalf a rec")
    finish("torn_journal_tail", store, "journal_cut_bytes")

    # Torn tmp: a compaction died mid-write, leaving snapshot.json.tmp.
    store = partial_run("torn-tmp")
    tmp = store.snapshot_path(max(store.snapshot_generations()) + 1)
    tmp.with_name(tmp.name + ".tmp").write_text('{"version": 3, "kind": "pos')
    finish("torn_tmp", store, "stray_tmp")

    # Corrupt newest snapshot: checksum must reject it, recovery must
    # fall back a generation, cut the journal, replay both generations.
    store = partial_run("bad-snap")
    newest = store.snapshot_path(max(store.snapshot_generations()))
    data = bytearray(newest.read_bytes())
    data[len(data) // 2] ^= 0xFF
    newest.write_bytes(bytes(data))
    finish("corrupt_snapshot", store, "fallbacks", "journal_cut_bytes")
    return report


def run_watchdog_drill(
    base_dir: str,
    hang_seconds: float = 0.5,
    timeout_s: float = 0.05,
) -> Dict[str, Any]:
    """The solver-watchdog drill: hang the LP, degrade, then re-arm.

    Slot 1 escalates into an injected ``hang_seconds`` stall; the
    watchdog must give up after ``timeout_s``, finish the slot
    fast-lane-only (every client still gets a decision within the
    tick), and bump ``service.degraded``.  Later slots, once the
    backoff window passes and the stalled solve has been reaped, must
    escalate through the LP again.
    """
    from repro.service.slotloop import TransferBroker

    config = _drill_config(os.path.join(base_dir, "watchdog"))
    config.watchdog_timeout_s = timeout_s
    config.watchdog_backoff_slots = 1
    broker = TransferBroker(config)
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
        "all_decided": all(cid in decided for cid in all_ids),
        "slo": broker.slo.evaluate(emit=False).get("degraded_slots", {}),
        "ok": (
            degraded_after_first >= 1
            and first_slot_s < hang_seconds
            and degraded_or_skipped >= 2
            and rearmed
            and all(cid in decided for cid in all_ids)
        ),
    }
    return report
