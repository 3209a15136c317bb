"""Checkpoint and restore a NetworkState inside a daemon snapshot.

A broker resumes after a crash from its last snapshot.  The snapshot
embeds the state's accounting (:func:`state_to_payload`): everything
the online model needs to continue — per-link-slot ledger volumes,
charged volumes ``X_ij``, completions, rejections, storage accounting,
and charging-period bookkeeping.

Topology is *not* serialized — a checkpoint is only meaningful against
the network it was taken from, so restore requires the same topology
(checked by shape: node ids and link keys must match).
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

import orjson

from repro.errors import SchedulingError
from repro.core.state import NetworkState
from repro.net.topology import Topology

PathLike = Union[str, Path]

_VERSION = 1
#: The one snapshot version, encoded once: the trailing ``checksum`` is
#: the CRC-32 of the compact text before it, and the service's decision
#: log lives in a journal beside the snapshot (``meta["decisions_mark"]``).
#: Older versions are refused, not read (docs/SERVICE.md, "Recovery").
_SNAPSHOT_VERSION = 3
_CHECKSUM_KEY = b',"checksum":'


def fsync_directory(directory: PathLike) -> None:
    """fsync a directory so a rename inside it survives power loss."""
    fd = os.open(str(directory), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(
    path: PathLike,
    data: bytes,
    fsync: bool = True,
    crashpoint: Optional[Callable[[str], None]] = None,
) -> int:
    """Write ``data`` to ``path`` with the full durability dance.

    tmp file -> flush -> fsync(tmp) -> rename -> fsync(directory).
    A bare tmp-and-rename only survives *process* death; the two fsyncs
    are what make the rename survive power loss (the data must be on
    disk before the rename, and the rename itself lives in the
    directory inode).  ``crashpoint`` is the chaos harness's hook — a
    callable invoked with a stage name (``checkpoint.pre_write`` /
    ``pre_fsync`` / ``pre_rename`` / ``post_rename``) at each boundary
    a crash could land on.  Returns the number of bytes written.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    hit = crashpoint or (lambda stage: None)
    hit("checkpoint.pre_write")
    with open(tmp, "wb") as fh:
        fh.write(data)
        if fsync:
            fh.flush()
            hit("checkpoint.pre_fsync")
            os.fsync(fh.fileno())
    hit("checkpoint.pre_rename")
    os.replace(tmp, target)
    if fsync:
        fsync_directory(target.parent)
    hit("checkpoint.post_rename")
    return len(data)


def state_to_payload(state: NetworkState) -> Dict[str, Any]:
    """The accounting of a NetworkState (not its topology) as JSON-ready data.

    Every key is a string and every value a JSON scalar, list or dict,
    so embedding the payload in a larger document serialises to the
    same bytes as embedding its parsed-back JSON text.
    """
    usage = {
        f"{src},{dst}": {
            str(slot): volume
            for slot, volume in state.ledger.usage(src, dst).volumes.items()
        }
        for src, dst in state.ledger.used_links()
    }
    return {
        "version": _VERSION,
        "kind": "postcard-state",
        "horizon": state.horizon,
        "node_ids": state.topology.node_ids(),
        "link_keys": sorted(f"{l.src},{l.dst}" for l in state.topology.links),
        "usage": usage,
        "charged": {
            f"{src},{dst}": volume
            for (src, dst), volume in state.charged_snapshot().items()
            if volume > 0
        },
        "completions": {str(k): v for k, v in state.completions.items()},
        "rejected": [
            {
                "source": r.source,
                "destination": r.destination,
                "size_gb": r.size_gb,
                "deadline_slots": r.deadline_slots,
                "release_slot": r.release_slot,
            }
            for r in state.rejected
        ],
        "storage_used": state.storage_used,
        "period_start": state.period_start,
        "banked_period_bills": list(state.banked_period_bills),
    }


def state_from_payload(payload: Dict[str, Any], topology: Topology) -> NetworkState:
    """Rebuild a NetworkState from :func:`state_to_payload` data against ``topology``.

    Raises :class:`SchedulingError` when the payload's network shape
    (node ids, link keys) does not match — restoring billing data onto
    a different overlay would silently corrupt every number downstream.
    Rejected files are restored as fresh :class:`TransferRequest`
    objects (ids are process-local).
    """
    from repro.traffic.spec import TransferRequest

    if payload.get("kind") != "postcard-state":
        raise SchedulingError("not a postcard state checkpoint")
    if payload.get("version") != _VERSION:
        raise SchedulingError(
            f"unsupported checkpoint version {payload.get('version')!r}"
        )

    if payload["node_ids"] != topology.node_ids():
        raise SchedulingError("checkpoint node ids do not match this topology")
    expected_links = sorted(f"{l.src},{l.dst}" for l in topology.links)
    if payload["link_keys"] != expected_links:
        raise SchedulingError("checkpoint link set does not match this topology")

    state = NetworkState(topology, payload["horizon"])
    for key, slots in payload.get("usage", {}).items():
        src, dst = (int(part) for part in key.split(","))
        for slot, volume in slots.items():
            state.ledger.record(src, dst, int(slot), float(volume))
    for key, volume in payload.get("charged", {}).items():
        src, dst = (int(part) for part in key.split(","))
        state._charged[(src, dst)] = float(volume)
    state.completions = {
        int(k): int(v) for k, v in payload.get("completions", {}).items()
    }
    state.rejected = [
        TransferRequest(
            source=int(row["source"]),
            destination=int(row["destination"]),
            size_gb=float(row["size_gb"]),
            deadline_slots=int(row["deadline_slots"]),
            release_slot=int(row["release_slot"]),
        )
        for row in payload.get("rejected", [])
    ]
    state.storage_used = float(payload.get("storage_used", 0.0))
    state.period_start = int(payload.get("period_start", 0))
    state.banked_period_bills = [
        float(v) for v in payload.get("banked_period_bills", [])
    ]
    return state


# -- service snapshots -----------------------------------------------------
#
# A long-running daemon needs more than the NetworkState to resume after
# a crash: the requests that were accepted but not yet batched into a
# slot, the next virtual slot index, and the request-id watermark (ids
# are process-local; a restored process must not reuse ids that key the
# snapshot's completions).  A *snapshot* wraps a state checkpoint with
# exactly that, leaving the pending-entry schema to the caller (the
# service encodes its own client ids and enqueue metadata there).


@dataclass
class ServiceSnapshot:
    """A restored daemon snapshot: state + queue + clock + caller data."""

    state: NetworkState
    #: Opaque pending-queue entries, exactly as the writer passed them.
    pending: List[Dict[str, Any]] = field(default_factory=list)
    #: Next virtual slot the daemon should process.
    next_slot: int = 0
    #: Caller-owned metadata (the service keeps its decision log here).
    meta: Dict[str, Any] = field(default_factory=dict)


def snapshot_to_json(
    state: NetworkState,
    pending: Optional[List[Dict[str, Any]]] = None,
    next_slot: int = 0,
    meta: Optional[Dict[str, Any]] = None,
) -> bytes:
    """Serialize a daemon snapshot (state + pending queue + clock).

    ``pending`` entries must be JSON-serializable dicts; they round-trip
    verbatim.  The current process's request-id watermark is captured so
    :func:`snapshot_from_json` can keep restored and future ids disjoint.
    """
    from repro.traffic.spec import peek_next_request_id

    payload = {
        "version": _SNAPSHOT_VERSION,
        "kind": "postcard-snapshot",
        "state": state_to_payload(state),
        "pending": list(pending or []),
        "next_slot": int(next_slot),
        "request_id_watermark": peek_next_request_id(),
        "meta": dict(meta or {}),
    }
    body = orjson.dumps(payload)
    return b"%s%s%d}" % (body[:-1], _CHECKSUM_KEY, zlib.crc32(body))


def snapshot_from_json(data: bytes, topology: Topology) -> ServiceSnapshot:
    """Rebuild a :class:`ServiceSnapshot` against ``topology``.

    Restores the embedded NetworkState (with the same shape checks as
    :func:`state_from_payload`) and advances the process-local request-id
    counter past the snapshot's watermark, so requests created after the
    restore never collide with completions restored from before it.
    """
    from repro.traffic.spec import ensure_request_ids_above

    try:
        payload = orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        raise SchedulingError(f"snapshot is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != "postcard-snapshot":
        raise SchedulingError("not a postcard service snapshot")
    version = payload.get("version")
    if version != _SNAPSHOT_VERSION:
        raise SchedulingError(
            f"unsupported snapshot version {version!r} "
            f"(this build reads version {_SNAPSHOT_VERSION} only)"
        )
    recorded = payload.get("checksum")
    expected = zlib.crc32(data.rpartition(_CHECKSUM_KEY)[0] + b"}")
    if recorded != expected:
        raise SchedulingError(
            f"snapshot checksum mismatch (recorded {recorded!r}, "
            f"computed {expected}): the file is corrupt or was "
            "hand-edited; recovery should fall back a generation"
        )
    state = state_from_payload(payload["state"], topology)
    ensure_request_ids_above(int(payload.get("request_id_watermark", 0)))
    return ServiceSnapshot(
        state=state,
        pending=list(payload.get("pending", [])),
        next_slot=int(payload.get("next_slot", 0)),
        meta=dict(payload.get("meta", {})),
    )


def save_snapshot(
    state: NetworkState,
    path: PathLike,
    pending: Optional[List[Dict[str, Any]]] = None,
    next_slot: int = 0,
    meta: Optional[Dict[str, Any]] = None,
    fsync: bool = True,
    crashpoint: Optional[Callable[[str], None]] = None,
) -> int:
    """Write a daemon snapshot atomically and durably.

    Atomicity (tmp file + rename) is what makes the crash-recovery
    story honest: a daemon killed mid-write leaves either the previous
    snapshot or the new one, never a torn file.  Durability (fsync of
    the tmp file before the rename, fsync of the directory after) is
    what extends that from process death to power loss.  Returns the
    number of bytes written (the durability benchmark's raw metric).
    """
    return atomic_write(
        path,
        snapshot_to_json(state, pending, next_slot, meta),
        fsync=fsync,
        crashpoint=crashpoint,
    )


def load_snapshot(path: PathLike, topology: Topology) -> ServiceSnapshot:
    """Read a daemon snapshot back against the same topology."""
    return snapshot_from_json(Path(path).read_bytes(), topology)
