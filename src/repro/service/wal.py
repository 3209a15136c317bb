"""Append-only, fsync'd, CRC-checksummed write-ahead log.

The broker's durability upgrade (PR 7): instead of rewriting the whole
snapshot JSON every few slots — O(served requests) bytes per write —
each admission and each slot commit is logged as one O(1)-sized record
*before* the client sees its ack.  Recovery replays the log over the
newest valid snapshot generation (see :class:`repro.service.store`),
so the resumed broker is exact even though snapshots are only compacted
periodically.

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
    {"type": "commit", "slot": t, "batch": [client ids],
     "decisions": {id: record}, "counts": {...}, "lane": "fast|lp|degraded",
     "lp_arcs": "paths"}   # lp records only; absent = solved on the full model

``admit`` is fsync'd before the submission is acknowledged as pending;
``commit`` is fsync'd before any of the slot's decisions are released
to waiting clients — the checkpoint-before-ack contract at per-record
cost instead of per-snapshot cost.  The store's decision journal
(``decisions.log``) uses the same framing; its frames are plain
``{client id: decision record}`` objects.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.errors import WalError
from repro.obs import registry as obs

PathLike = Union[str, Path]

#: ``<length u32, crc32 u32>`` little-endian record header.
RECORD_HEADER = struct.Struct("<II")

#: Parse bound on one record's payload.  Real records are a few hundred
#: bytes; a length field beyond this is framing garbage, not a record.
MAX_RECORD_BYTES = 16 * 1024 * 1024

#: Record type tags.
REC_ADMIT = "admit"
REC_COMMIT = "commit"


def encode_record(record: Dict[str, Any]) -> bytes:
    """One record as its on-disk frame (header + compact JSON payload)."""
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
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
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
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
    """One open, append-only WAL file.

    ``fsync=True`` (the default) makes every append durable before it
    returns — the property the before-ack contract rests on.  The
    ``crashpoint`` / ``mangle`` hooks are the chaos harness's taps (see
    :mod:`repro.service.chaos`); production leaves them ``None``.
    """

    def __init__(
        self,
        path: PathLike,
        fsync: bool = True,
        crashpoint: Optional[Callable[[str], None]] = None,
        mangle: Optional[Callable[[str, bytes], bytes]] = None,
    ):
        self.path = Path(path)
        self.fsync = fsync
        self._crashpoint = crashpoint or (lambda stage: None)
        self._mangle = mangle or (lambda stage, data: data)
        self._fh: Optional[Any] = open(self.path, "ab")
        #: Appended by this process (not the on-disk total after resume).
        self.records_written = 0
        self.bytes_written = 0

    @property
    def closed(self) -> bool:
        return self._fh is None

    def append(self, *records: Dict[str, Any]) -> int:
        """Frame, write, and (by default) fsync records — one fsync for all.

        Returns the frame size in bytes.  The chaos taps sit exactly at
        the boundaries a real crash distinguishes: before the write,
        between write and fsync (data may or may not reach disk), and
        after the fsync (record durable, ack not yet sent).
        """
        if self._fh is None:
            raise WalError(f"append to closed WAL {self.path}")
        frame = b"".join(map(encode_record, records))
        self._crashpoint("wal.pre_write")
        data = self._mangle("wal.append", frame)
        self._fh.write(data)
        self._fh.flush()
        self._crashpoint("wal.pre_fsync")
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._crashpoint("wal.post_fsync")
        self.records_written += len(records)
        self.bytes_written += len(data)
        return len(frame)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
