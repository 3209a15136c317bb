"""Serialize workload traces and schedules to/from JSON.

Reproducibility glue: a simulation's exact file arrivals and the
schedule a solver produced can be written to disk, shared, and replayed
with :class:`~repro.traffic.workload.TraceWorkload`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Union

from repro.errors import WorkloadError
from repro.core.schedule import (
    SEMANTICS_FLUID,
    SEMANTICS_STORE_AND_FORWARD,
    ScheduleEntry,
    TransferSchedule,
)
from repro.traffic.spec import TransferRequest

PathLike = Union[str, Path]

_TRACE_VERSION = 1


def requests_to_json(requests: List[TransferRequest]) -> str:
    """Encode requests as a versioned JSON document."""
    payload = {
        "version": _TRACE_VERSION,
        "kind": "postcard-trace",
        "requests": [
            {
                "id": r.request_id,
                "source": r.source,
                "destination": r.destination,
                "size_gb": r.size_gb,
                "deadline_slots": r.deadline_slots,
                "release_slot": r.release_slot,
            }
            for r in requests
        ],
    }
    return json.dumps(payload, indent=2)


def requests_from_json(text: str) -> List[TransferRequest]:
    """Decode requests; fresh request ids are assigned (ids in the file
    are informational — uniqueness is owned by this process)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkloadError(f"trace is not valid JSON: {exc}") from exc
    if payload.get("kind") != "postcard-trace":
        raise WorkloadError("not a postcard trace document")
    if payload.get("version") != _TRACE_VERSION:
        raise WorkloadError(
            f"unsupported trace version {payload.get('version')!r}"
        )
    out = []
    for row in payload.get("requests", []):
        try:
            out.append(
                TransferRequest(
                    source=int(row["source"]),
                    destination=int(row["destination"]),
                    size_gb=float(row["size_gb"]),
                    deadline_slots=int(row["deadline_slots"]),
                    release_slot=int(row.get("release_slot", 0)),
                )
            )
        except KeyError as exc:
            raise WorkloadError(f"trace request missing field {exc}") from exc
    return out


def save_requests(requests: List[TransferRequest], path: PathLike) -> None:
    """Write a request trace to ``path`` as JSON."""
    Path(path).write_text(requests_to_json(requests))


def load_requests(path: PathLike) -> List[TransferRequest]:
    """Read a request trace from ``path`` (fresh ids are assigned)."""
    return requests_from_json(Path(path).read_text())


def schedule_to_json(schedule: TransferSchedule) -> str:
    """Encode a schedule (transmissions, storage + semantics) as JSON."""
    payload = {
        "version": _TRACE_VERSION,
        "kind": "postcard-schedule",
        "semantics": schedule.semantics,
        "entries": [e._asdict() for e in schedule.entries],
        "storage": [
            {"request_id": rid, "gb_slots": gb} for rid, gb in schedule.stored
        ],
    }
    return json.dumps(payload, indent=2)


def schedule_from_json(text: str) -> TransferSchedule:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkloadError(f"schedule is not valid JSON: {exc}") from exc
    if payload.get("kind") != "postcard-schedule":
        raise WorkloadError("not a postcard schedule document")
    semantics = payload.get("semantics", SEMANTICS_STORE_AND_FORWARD)
    if semantics not in (SEMANTICS_STORE_AND_FORWARD, SEMANTICS_FLUID):
        raise WorkloadError(f"unknown schedule semantics {semantics!r}")
    # Documents written before waiting was implied list each waiting
    # slot as a "holdover" row: its volume is one GB-slot contribution.
    entries, stored = [], []
    try:
        for row in payload.get("entries", []):
            kind, rid = row.get("kind", "transit"), int(row["request_id"])
            if kind == "holdover":
                stored.append((rid, float(row["volume"])))
            elif kind != "transit":
                raise ValueError(f"unknown schedule entry kind {kind!r}")
            else:
                entries.append(ScheduleEntry(
                    rid, *(int(row[f]) for f in ("src", "dst", "slot")), float(row["volume"])
                ))
        stored += [(int(r["request_id"]), float(r["gb_slots"])) for r in payload.get("storage", [])]
    except KeyError as exc:
        raise WorkloadError(f"schedule entry missing field {exc}") from exc
    except ValueError as exc:
        raise WorkloadError(str(exc)) from exc
    return TransferSchedule(entries, semantics=semantics, stored=stored)


def save_schedule(schedule: TransferSchedule, path: PathLike) -> None:
    """Write a schedule (entries + semantics) to ``path`` as JSON."""
    Path(path).write_text(schedule_to_json(schedule))


def load_schedule(path: PathLike) -> TransferSchedule:
    """Read a schedule previously written by :func:`save_schedule`."""
    return schedule_from_json(Path(path).read_text())


#: Generator family -> (class name, serialized parameter fields).  The
#: topology is *not* serialized — workloads are reconstructed against a
#: caller-supplied topology, mirroring how the generators are built.
_WORKLOAD_FAMILIES = {
    "paper": (
        "PaperWorkload",
        ("max_deadline", "min_files", "max_files", "min_size", "max_size",
         "seed", "deadline_distribution", "min_deadline"),
    ),
    "diurnal": (
        "DiurnalWorkload",
        ("max_deadline", "peak_files", "trough_files", "slots_per_day",
         "phase_slots", "min_size", "max_size", "seed"),
    ),
    "poisson": (
        "PoissonWorkload",
        ("max_deadline", "rate", "min_size", "max_size", "seed"),
    ),
    "flash_crowd": (
        "FlashCrowdWorkload",
        ("max_deadline", "base_rate", "burst_probability", "burst_files",
         "min_size", "max_size", "seed"),
    ),
}


def _workload_payload(workload) -> dict:
    from repro.traffic import workload as wl

    for family, (cls_name, params) in _WORKLOAD_FAMILIES.items():
        if type(workload) is getattr(wl, cls_name):
            return {
                "family": family,
                "params": {name: getattr(workload, name) for name in params},
            }
    if type(workload) is wl.MergedWorkload:
        return {
            "family": "merged",
            "components": [
                _workload_payload(c) for c in workload.components
            ],
        }
    raise WorkloadError(
        f"cannot serialize workload of type {type(workload).__name__}; "
        "supported: paper, diurnal, poisson, flash_crowd, merged"
    )


def workload_to_json(workload) -> str:
    """Encode a generator workload (family + parameters) as JSON.

    Covers the parametric families (and merges of them); an explicit
    :class:`~repro.traffic.workload.TraceWorkload` is a request list —
    serialize it with :func:`requests_to_json` instead.
    """
    payload = {
        "version": _TRACE_VERSION,
        "kind": "postcard-workload",
        **_workload_payload(workload),
    }
    return json.dumps(payload, indent=2)


def _workload_from_payload(payload: dict, topology):
    from repro.traffic import workload as wl

    family = payload.get("family")
    if family == "merged":
        return wl.MergedWorkload([
            _workload_from_payload(c, topology)
            for c in payload.get("components", [])
        ])
    if family not in _WORKLOAD_FAMILIES:
        raise WorkloadError(f"unknown workload family {family!r}")
    cls_name, params = _WORKLOAD_FAMILIES[family]
    given = payload.get("params", {})
    unknown = set(given) - set(params)
    if unknown:
        raise WorkloadError(
            f"workload family {family!r} has no parameters {sorted(unknown)}"
        )
    return getattr(wl, cls_name)(topology, **given)


def workload_from_json(text: str, topology):
    """Decode a workload document against ``topology``.

    The round-trip is exact: every serialized parameter (seed,
    seasonality period, phase) is restored, so the rebuilt generator
    releases bit-identical requests slot by slot.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkloadError(f"workload is not valid JSON: {exc}") from exc
    if payload.get("kind") != "postcard-workload":
        raise WorkloadError("not a postcard workload document")
    if payload.get("version") != _TRACE_VERSION:
        raise WorkloadError(
            f"unsupported workload version {payload.get('version')!r}"
        )
    return _workload_from_payload(payload, topology)
