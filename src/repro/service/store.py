"""Snapshot + decision journal + WAL persistence for the daemon.

Every checkpoint directory holds ``decisions.log``, the append-only
**decision journal**: the idempotency log in the WAL's frame format,
each decision written once.  A snapshot carries state and
``meta["decisions_mark"]``, the journal length it covers, so a
checkpoint costs what changed since the last one, not what was ever
served.  Beside it the directory holds *generations*::

    snapshot-00000001.json   wal-00000001.log
    snapshot-00000002.json   wal-00000002.log      <- newest
    snapshot-00000000.json   wal-00000000.log      <- genesis

Every admission and slot commit is appended to the current generation's
log (O(1) bytes; a slot's admits ride its commit's fsync, see "What is
durable when" in docs/ROBUSTNESS.md); every ``checkpoint_every`` slots
:meth:`SnapshotStore.save` *compacts*: journal, snapshot ``g+1``, fresh
``wal-<g+1>.log``, prune past the retention window.  Log ``g``
covers exactly the interval between snapshots ``g`` and ``g+1``, which
is what makes checksum fallback work (:meth:`SnapshotStore.recover`;
docs/ROBUSTNESS.md has the write order and the recovery rules).  A
fresh directory starts with generation 0's snapshot (:meth:`genesis`); a
snapshot-only directory's is adopted as generation 0.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.checkpoint import (
    ServiceSnapshot,
    fsync_directory,
    load_snapshot,
    save_snapshot,
)
from repro.core.state import NetworkState
from repro.errors import SchedulingError, WalError
from repro.net.topology import Topology
from repro.obs import registry as obs
from repro.service import chaos
from repro.service.wal import WalScan, WriteAheadLog, scan_wal, truncate_torn_tail

#: The one snapshot of a directory written in snapshot-only mode.
SNAPSHOT_ONLY_NAME = "snapshot.json"
JOURNAL_NAME = "decisions.log"

#: Zero-padded generation width in file names (keeps lexicographic and
#: numeric order identical for the curious shell user).
_GEN_WIDTH = 8

#: Decisions per journal frame (~250 B each): keeps a frame far below
#: the WAL's record bound however long an inherited inline log is.
_FRAME_DECISIONS = 1024


class SnapshotStore:
    """Generational snapshots and write-ahead logs + the decision journal."""

    def __init__(self, directory: str, retain: int = 3, fsync: bool = True):
        if retain < 1:
            raise WalError(f"snapshot retention must be >= 1, got {retain}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.directory / JOURNAL_NAME
        self.retain = retain
        self.fsync = fsync
        #: What this process made durable, by file kind, across log
        #: rotations (the ``stats`` op surfaces these; ``wal_*`` count the
        #: WAL alone and the durability benchmark sums all three ``*_bytes``).
        self.written = {"checkpoints": 0, "wal_records": 0, "wal_bytes": 0,
                        "wal_syncs": 0, "journal_bytes": 0, "snapshot_bytes": 0}
        #: The open append log (after :meth:`open_wal`).
        self.wal: Optional[WriteAheadLog] = None
        #: Journal length the newest adopted-or-written snapshot covers.
        self._mark = 0
        #: The generation currently receiving WAL appends.
        self.generation = 0
        #: Whether a checkpoint has listed the directory since it was
        #: opened; after that each one unlinks a single generation.
        self._swept = False

    # -- file layout -------------------------------------------------------

    def snapshot_path(self, generation: int) -> Path:
        """Generation ``g``'s snapshot (0: one adopted from snapshot-only mode)."""
        return self.directory / f"snapshot-{generation:0{_GEN_WIDTH}d}.json"

    def wal_path(self, generation: int) -> Path:
        return self.directory / f"wal-{generation:0{_GEN_WIDTH}d}.log"

    def _numbered(self, prefix: str, suffix: str) -> List[int]:
        found = []
        for entry in self.directory.glob(f"{prefix}*{suffix}"):
            stem = entry.name[len(prefix) : -len(suffix)]
            if stem.isdigit():
                found.append(int(stem))
        return sorted(found)

    def snapshot_generations(self) -> List[int]:
        """Generations with a snapshot file on disk, ascending."""
        return self._numbered("snapshot-", ".json")

    def wal_generations(self) -> List[int]:
        """Generations with a WAL file on disk, ascending."""
        return self._numbered("wal-", ".log")

    # -- WAL appends -------------------------------------------------------

    def open_wal(self) -> WriteAheadLog:
        """Open (creating if needed) the current generation's append log."""
        if self.wal is None:
            self.wal = WriteAheadLog(
                self.wal_path(self.generation), fsync=self.fsync,
                crashpoint=chaos.crashpoint,
            )
        return self.wal

    def append_wal(self, record: Dict[str, Any], sync: bool = True) -> int:
        """Append one record to the current generation's log; ``sync=False``
        (an admit) leaves it to the next :meth:`sync_wal` to make durable."""
        size = self.open_wal().append(record, sync=False)
        self.written["wal_records"] += 1
        self.written["wal_bytes"] += size
        if sync:
            self.sync_wal()
        return size

    def sync_wal(self) -> None:
        """Make every appended record durable (at most one fsync)."""
        if self.wal is not None:
            self.written["wal_syncs"] += self.wal.sync()

    # -- snapshots ---------------------------------------------------------

    def genesis(self, state: NetworkState, meta: Dict[str, Any]) -> None:
        """Generation 0's snapshot in a fresh directory: empty books, ``meta``."""
        save_snapshot(state, self.snapshot_path(0), [], 0,
                      dict(meta, decisions_mark=0), fsync=self.fsync)

    def save(
        self,
        state: NetworkState,
        pending: List[Dict[str, Any]],
        next_slot: int,
        meta: Dict[str, Any],
        decisions: Dict[str, Dict[str, Any]],
    ) -> None:
        """Journal ``decisions`` (made since the last save), then snapshot.

        The order is the crash-safety argument: decisions are in the
        journal (one fsync) *before* the snapshot whose mark covers
        them exists, and that snapshot is durable *before* appends move
        to the new log or anything old is pruned.  A death in between
        leaves (old snapshot + journal tail past its mark, which
        recovery cuts + complete old log) or (new snapshot [+ partial
        new log]).
        """
        generation = self.generation + 1
        with obs.span(
            "service.checkpoint", slot=next_slot,
            pending=len(pending), generation=generation,
        ) as span:
            journaled = self._journal(decisions)
            written = save_snapshot(
                state, self.snapshot_path(generation), pending, next_slot,
                dict(meta, decisions_mark=self._mark + journaled),
                fsync=self.fsync, crashpoint=chaos.crashpoint,
            )
            attrs = getattr(span, "attrs", None)
            if attrs is not None:
                attrs.update(
                    bytes=written, journal_bytes=journaled, decisions=len(decisions)
                )
        self._mark += journaled
        self.written["journal_bytes"] += journaled
        self.written["snapshot_bytes"] += written
        self.close()
        self.generation = generation
        self.open_wal()
        if self.fsync:
            fsync_directory(self.directory)
        self._prune(generation)
        self.written["checkpoints"] += 1
        obs.counter("service.checkpoints", generation=generation)

    def _journal(self, decisions: Dict[str, Dict[str, Any]]) -> int:
        """Append ``decisions`` at the mark in bounded frames; bytes written.

        Crash points: ``journal.pre_write | pre_fsync | post_fsync``.
        """
        if not decisions:
            return 0
        # Whatever a crashed or failed save left past the mark goes
        # first: a later mark would count it as history.
        self._cut_journal()
        items = list(decisions.items())
        journal = WriteAheadLog(
            self.journal_path, fsync=self.fsync,
            crashpoint=lambda at: chaos.crashpoint(at.replace("wal", "journal", 1)),
        )
        try:
            return journal.append(*(
                dict(items[i : i + _FRAME_DECISIONS])
                for i in range(0, len(items), _FRAME_DECISIONS)
            ))
        finally:
            journal.close()

    def _cut_journal(self) -> int:
        """Truncate the journal to the mark (fsync'd); returns bytes cut."""
        path = self.journal_path
        size = path.stat().st_size if path.exists() else 0
        return truncate_torn_tail(WalScan(
            path, valid_bytes=self._mark, torn_bytes=size - self._mark,
            torn_reason="past the snapshot's mark",
        ))

    def _prune(self, generation: int) -> None:
        """Drop generations older than the retention window.

        Keeps the last ``retain`` snapshot generations *and their logs*
        — a fallback to the oldest retained snapshot still replays a
        complete log chain to the head.  The first checkpoint of a
        process lists the directory and drops everything below the
        window (a crash's or a larger ``retain``'s leftovers); each one
        after it unlinks the generation that just left the window by
        name, so a checkpoint never globs.
        """
        cutoff = generation - self.retain + 1
        if self._swept:
            snapshots = wals = [cutoff - 1]
        else:
            snapshots, wals = self.snapshot_generations(), self.wal_generations()
            self._swept = True
        for gen in snapshots:
            if 0 <= gen < cutoff:
                self.snapshot_path(gen).unlink(missing_ok=True)
        for gen in wals:
            if 0 <= gen < cutoff:
                self.wal_path(gen).unlink(missing_ok=True)

    # -- recovery ----------------------------------------------------------

    def recover(
        self, topology: Topology
    ) -> Tuple[Optional[ServiceSnapshot], List[Dict[str, Any]], Dict[str, Any]]:
        """Newest valid snapshot, its decision log, the WAL records past it.

        Adopts a snapshot-only directory (:meth:`_adopt_snapshot_only`),
        walks snapshot generations newest-first until one passes its
        checksum (each rejection a counted *fallback*; a corrupt
        generation 0 refuses loudly: the genesis log follows it, not
        empty books), truncates torn log tails, sweeps stray ``*.tmp``
        files, and returns ``(snapshot_or_None, records, info)``.  Journal
        bytes ``[0, mark)`` must scan clean — a bad frame *below* the mark
        is a hole in the idempotency log, not a torn tail — and come back
        as ``snapshot.meta["decisions"]``; the rest is cut.  The caller
        replays ``records`` (every intact record from the chosen
        generation's log on) over the snapshot, re-deriving the cut.
        """
        info: Dict[str, Any] = {
            "base_generation": None,
            "fallbacks": 0,
            "fallback_errors": [],
            "replayed_records": 0,
            "torn_bytes": 0,
            "journal_cut_bytes": 0,
            "stray_tmp": 0,
        }
        for stray in sorted(self.directory.glob("*.tmp")):
            stray.unlink(missing_ok=True)
            info["stray_tmp"] += 1
            obs.counter("service.recovery.stray_tmp")
        self._adopt_snapshot_only()

        snapshot: Optional[ServiceSnapshot] = None
        base = 0
        for gen in reversed(self.snapshot_generations()):
            try:
                snapshot = load_snapshot(self.snapshot_path(gen), topology)
                base = gen
                break
            except (SchedulingError, OSError, ValueError) as exc:
                # ValueError covers UnicodeDecodeError: a byte-level
                # corruption can break the UTF-8 decode before the
                # checksum ever gets a look.
                if gen == 0:
                    raise  # the genesis log does not start from empty books
                info["fallbacks"] += 1
                info["fallback_errors"].append(f"generation {gen}: {exc}")
                obs.counter("service.snapshot.fallback", generation=gen)
        if snapshot is None:
            wal_gens = self.wal_generations()
            if wal_gens and wal_gens[0] > 0:
                raise WalError(
                    "no readable snapshot generation and the retained WAL "
                    f"chain starts at generation {wal_gens[0]}, not genesis; "
                    "the history cannot be rebuilt"
                )

        meta = snapshot.meta if snapshot is not None else {}
        self._mark = int(meta.get("decisions_mark", 0))
        scan = scan_wal(self.journal_path, limit=self._mark)
        if scan.valid_bytes != self._mark:
            raise WalError(
                f"decision journal {self.journal_path} is damaged below the "
                f"snapshot's mark ({scan.torn_reason or 'file too short'} at "
                f"byte {scan.valid_bytes} of {self._mark}); refusing to serve "
                "with a hole in the idempotency log"
            )
        if "decisions_mark" in meta:  # else v1/v2: the log rides inline, unjournaled
            meta["decisions"] = {
                cid: record for frame in scan.records for cid, record in frame.items()
            }
        info["journal_cut_bytes"] = self._cut_journal()

        records: List[Dict[str, Any]] = []
        newest = max([base] + self.wal_generations())
        for gen in range(base, newest + 1):
            scan = scan_wal(self.wal_path(gen))
            if scan.torn:
                info["torn_bytes"] += truncate_torn_tail(scan)
            records.extend(scan.records)

        self.generation = newest
        info["base_generation"] = base if (snapshot or records) else None
        info["replayed_records"] = len(records)
        self.open_wal()
        return snapshot, records, info

    def _adopt_snapshot_only(self) -> None:
        """Rename a snapshot-only directory's ``snapshot.json`` to generation
        0's snapshot, which the genesis log follows; fsync'd before any
        append.  A directory holding both layouts is refused, not guessed at."""
        legacy = self.directory / SNAPSHOT_ONLY_NAME
        if not legacy.exists():
            return
        if self.snapshot_generations() or self.wal_generations():
            raise WalError(
                f"{self.directory} holds both {SNAPSHOT_ONLY_NAME} and "
                "snapshot generations or logs; refusing to choose between them"
            )
        os.replace(legacy, self.snapshot_path(0))
        if self.fsync:
            fsync_directory(self.directory)

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Persistence counters for the broker's ``stats`` op."""
        return dict(self.written, generation=self.generation)

    def close(self) -> None:
        """Sync and close the open log (rotation and shutdown both)."""
        self.sync_wal()
        if self.wal is not None:
            self.wal.close()
            self.wal = None
