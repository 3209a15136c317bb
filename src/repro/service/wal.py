"""Append-only, fsync'd, CRC-checksummed write-ahead log.

Each admission and each slot commit is logged as one record, of a size
that follows its own batch, *before* the client sees its ack.  Recovery
replays the log over the newest valid snapshot generation (see
:mod:`repro.service.store`), so the resumed broker is exact between
periodic compactions.

Record framing, designed so a crash can land anywhere::

    [ length u32 | crc32 u32 | payload bytes ]  repeated

``length`` and ``crc32`` are little-endian and cover the payload (a
compact-JSON object).  A torn tail — short header, short payload, CRC
mismatch, or unparseable JSON — marks the end of the recoverable
prefix: everything before it is intact by checksum, everything at and
after it is discarded by :func:`truncate_torn_tail`.  Tearing is an
expected crash artifact, never an error.

Record types the broker writes (:mod:`repro.service.slotloop`)::

    {"type": "admit",  "entry": {..pending payload..}, "submitted": n}
    {"type": "commit", "slot": t, "batch": [client ids], "counts": {...},
     "lane": "fast|lp|degraded|failed", "plan": {..}}

A commit's ``plan`` (:func:`plan_record`) is the slot's committed
:class:`~repro.core.interfaces.SlotPlan` by position in ``batch`` (and
the replanner's files in flight by position in its active set); replay
commits it.  A commit without one is a failed slot's, or an idle slot's
with nothing in flight, which replay commits as the empty plan.  Older
records are refused (:data:`FORMAT_FLOOR`).

Every frame is written through at once; ``commit`` is fsync'd before any
of the slot's decisions are released, and an ``admit`` becomes durable
with the first fsync that follows it on the log — that commit, or a
:meth:`WriteAheadLog.sync` before a reply that reveals it (the rule:
docs/ROBUSTNESS.md, "What is durable when").  The store's decision
journal (``decisions.log``) uses the same framing; its frames are plain
``{client id: decision record}`` objects.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import orjson

from repro.core.interfaces import SlotPlan
from repro.core.schedule import SEMANTICS_STORE_AND_FORWARD, ScheduleEntry, TransferSchedule
from repro.errors import WalError
from repro.obs import registry as obs
from repro.traffic.spec import TransferRequest

PathLike = Union[str, Path]

#: ``<length u32, crc32 u32>`` little-endian record header.
RECORD_HEADER = struct.Struct("<II")

#: Parse bound on one record's payload.  Real records are a few hundred
#: bytes; a length field beyond this is framing garbage, not a record.
MAX_RECORD_BYTES = 16 * 1024 * 1024

#: What recovery reads, named by every refusal of what lies below it.
FORMAT_FLOOR = (
    "this build recovers only directories written since commit 76faf1c: "
    "version-3 snapshots with a decisions_mark and commits that carry "
    "their plan (docs/SERVICE.md, \"Recovery\")"
)

#: Record type tags.
REC_ADMIT = "admit"
REC_COMMIT = "commit"


def plan_record(plan: SlotPlan, requests: List[TransferRequest],
                carried: Sequence[TransferRequest] = ()) -> Dict[str, Any]:
    """``plan`` of the batch ``requests``: ``sends`` ``[position, src, dst,
    slot, GB]`` in entry order, ``stored`` ``[position, GB-slots]``, the
    ``accepted`` and ``rejected`` positions in order, ``per_file``, and a
    fluid schedule's ``semantics`` and a q-aware solve's ``grants``.  The
    sends and storage of the files of earlier batches (``carried``: the
    scheduler's as the slot began, keyed by position there) are the
    ``carried`` field's ``sends`` and ``stored``; they lead the schedule."""
    at = {request.request_id: i for i, request in enumerate(requests)}
    schedule = plan.schedule
    record: Dict[str, Any] = {
        **_moves(schedule, at),
        "accepted": [at[request.request_id] for request in plan.accepted],
        "rejected": [at[request.request_id] for request in plan.rejected],
        "per_file": plan.per_file,
    }
    if schedule.semantics != SEMANTICS_STORE_AND_FORWARD:
        record["semantics"] = schedule.semantics
    if plan.grants:
        record["grants"] = [[*key, sorted(slots)] for key, slots in plan.grants.items()]
    if carried:
        record["carried"] = _moves(schedule, {r.request_id: i for i, r in enumerate(carried)})
    return record


def _moves(schedule: TransferSchedule, at: Dict[int, int]) -> Dict[str, list]:
    """The ``sends`` and ``stored`` rows of the files ``at`` positions."""
    return {
        "sends": [[at[entry[0]], *entry[1:]] for entry in schedule.entries if entry[0] in at],
        "stored": [[at[rid], gb] for rid, gb in schedule.stored if rid in at],
    }


def recorded_plan(record: Dict[str, Any], requests: List[TransferRequest],
                  carried: Sequence[TransferRequest] = ()) -> SlotPlan:
    """The plan :func:`plan_record` wrote, on the replayed batch ``requests``
    and the scheduler's ``carried`` files."""
    entries, stored = [], []
    for rows, files in ((record.get("carried"), carried), (record, requests)):
        if rows:
            ids = [request.request_id for request in files]
            entries += [ScheduleEntry(ids[i], *sent) for i, *sent in rows["sends"]]
            stored += [(ids[i], gb) for i, gb in rows["stored"]]
    schedule = TransferSchedule(
        semantics=record.get("semantics", SEMANTICS_STORE_AND_FORWARD), stored=stored)
    # Assigned, not filtered again: the entries land as they did.
    schedule.entries = entries
    return SlotPlan(
        schedule, [requests[i] for i in record["accepted"]],
        [requests[i] for i in record["rejected"]], record["per_file"],
        grants={(src, dst): set(slots) for src, dst, slots in record.get("grants", [])},
    )


def encode_record(record: Dict[str, Any]) -> bytes:
    """One record as its on-disk frame (header + compact JSON payload)."""
    payload = orjson.dumps(record)
    if len(payload) > MAX_RECORD_BYTES:
        raise WalError(
            f"WAL record of {len(payload)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte bound"
        )
    return RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class WalScan:
    """The readable prefix of one WAL file.

    ``valid_bytes`` is the offset the intact prefix ends at;
    ``torn_bytes`` is how much trailing garbage follows it (0 for a
    cleanly closed log); ``torn_reason`` says what ended the scan.
    """

    path: Path
    records: List[Dict[str, Any]] = field(default_factory=list)
    valid_bytes: int = 0
    torn_bytes: int = 0
    torn_reason: str = ""

    @property
    def torn(self) -> bool:
        return self.torn_bytes > 0


def scan_wal(path: PathLike, limit: Optional[int] = None) -> WalScan:
    """Read every intact record of a WAL file; stop at the first tear.

    Never raises on file *content* — corruption is a crash artifact the
    caller truncates, not an exception.  A missing file scans as empty.
    ``limit`` scans only that many leading bytes (the decision journal
    below a snapshot's mark), whole exactly when ``valid_bytes == limit``.
    """
    target = Path(path)
    scan = WalScan(path=target)
    if not target.exists():
        return scan
    data = target.read_bytes()[:limit]
    offset = 0
    while offset < len(data):
        header = data[offset : offset + RECORD_HEADER.size]
        if len(header) < RECORD_HEADER.size:
            scan.torn_reason = "short header"
            break
        length, crc = RECORD_HEADER.unpack(header)
        if length > MAX_RECORD_BYTES:
            scan.torn_reason = f"implausible record length {length}"
            break
        start = offset + RECORD_HEADER.size
        payload = data[start : start + length]
        if len(payload) < length:
            scan.torn_reason = "short payload"
            break
        if zlib.crc32(payload) != crc:
            scan.torn_reason = "checksum mismatch"
            break
        try:
            record = orjson.loads(payload)
        except orjson.JSONDecodeError:
            scan.torn_reason = "payload is not valid JSON"
            break
        scan.records.append(record)
        offset = start + length
        scan.valid_bytes = offset
    scan.torn_bytes = len(data) - scan.valid_bytes
    return scan


def truncate_torn_tail(scan: WalScan) -> int:
    """Cut a scanned file back to its intact prefix; returns bytes cut.

    The truncation is fsync'd: a recovery that trimmed a torn tail and
    then crashed again must not resurrect the garbage.
    """
    if not scan.torn:
        return 0
    with open(scan.path, "r+b") as fh:
        fh.truncate(scan.valid_bytes)
        fh.flush()
        os.fsync(fh.fileno())
    obs.counter(
        "service.wal.torn_truncated", scan.torn_bytes, reason=scan.torn_reason
    )
    return scan.torn_bytes


class WriteAheadLog:
    """One open, append-only WAL file with a durable watermark.

    Frames are written straight through (no user-space buffer): bytes
    ``[0, bytes_written)`` survive a process kill, ``[0, bytes_durable)``
    survive power loss, and :meth:`sync` closes the gap with one fsync
    (``fsync=False`` moves the watermark without the disk call).
    ``crashpoint`` is the chaos harness's tap (see
    :mod:`repro.service.chaos`); production leaves it ``None``.
    """

    def __init__(
        self,
        path: PathLike,
        fsync: bool = True,
        crashpoint: Optional[Callable[[str], None]] = None,
    ):
        self.path = Path(path)
        self.fsync = fsync
        self._crashpoint = crashpoint or (lambda stage: None)
        self._fh: Optional[Any] = open(self.path, "ab", buffering=0)
        #: The file's length, and the prefix this handle knows an fsync
        #: covered: inherited bytes may be page cache only, so 0 until synced.
        self.bytes_written = self._fh.tell()
        self.bytes_durable = 0
        #: Frames written past the watermark (the next fsync's group size).
        self._unsynced = 0

    @property
    def closed(self) -> bool:
        return self._fh is None

    def append(self, *records: Dict[str, Any], sync: bool = True) -> int:
        """Frame and write records, then :meth:`sync` — one fsync for all.

        ``sync=False`` is the admit form: written through, durable with
        the next fsync on this log.  A write that fails part-way is cut
        back off the file; if the cut fails too the log is poisoned
        (closed), so no later frame lands after garbage.  Returns the
        frame size in bytes.  Crash point: ``wal.pre_write``.
        """
        if self._fh is None:
            raise WalError(f"append to closed or poisoned WAL {self.path}")
        frame = b"".join(map(encode_record, records))
        self._crashpoint("wal.pre_write")
        try:
            view = memoryview(frame)
            while view:
                view = view[self._fh.write(view):]
        except OSError:
            try:
                self._fh.truncate(self.bytes_written)
            except OSError:
                self._poison()
            raise
        self.bytes_written += len(frame)
        self._unsynced += len(records)
        if sync:
            self.sync()
        return len(frame)

    def sync(self) -> bool:
        """Raise the watermark to ``bytes_written``; true if that cost an fsync.

        A no-op when nothing is unsynced.  A failed fsync poisons the log,
        as a failed cut does: the kernel may have dropped the dirty pages
        and will not say so twice.  Crash points, where a real crash
        differs: ``wal.pre_fsync`` (written, may or may not reach the
        disk) and ``wal.post_fsync`` (durable, nobody told yet).
        """
        if self._fh is None or self.bytes_durable == self.bytes_written:
            return False
        self._crashpoint("wal.pre_fsync")
        if self.fsync:
            try:
                os.fsync(self._fh.fileno())
            except OSError:
                self._poison()
                raise
            obs.counter("service.wal.sync", records=self._unsynced)
        self.bytes_durable, self._unsynced = self.bytes_written, 0
        self._crashpoint("wal.post_fsync")
        return self.fsync

    def _poison(self) -> None:
        """Close the file without a sync: every later append fails."""
        fh, self._fh = self._fh, None
        fh.close()

    def close(self) -> None:
        """Sync, then close: a closed log holds no unsynced byte."""
        if self._fh is not None:
            try:
                self.sync()
            finally:
                self._fh.close()
                self._fh = None
