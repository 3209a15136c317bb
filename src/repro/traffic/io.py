"""Serialize request traces to/from JSON.

Reproducibility glue: a simulation's exact file arrivals can be written
to disk (``repro trace generate``), shared, and replayed with
:class:`~repro.traffic.workload.TraceWorkload` (``repro trace run``).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

import orjson

from repro.errors import WorkloadError
from repro.traffic.spec import TransferRequest

PathLike = Union[str, Path]

_TRACE_VERSION = 1


def requests_to_json(requests: List[TransferRequest]) -> bytes:
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
    return orjson.dumps(payload, option=orjson.OPT_INDENT_2)


def requests_from_json(text: Union[str, bytes]) -> List[TransferRequest]:
    """Decode requests; fresh request ids are assigned (ids in the file
    are informational — uniqueness is owned by this process)."""
    try:
        payload = orjson.loads(text)
    except orjson.JSONDecodeError as exc:
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
    Path(path).write_bytes(requests_to_json(requests))


def load_requests(path: PathLike) -> List[TransferRequest]:
    """Read a request trace from ``path`` (fresh ids are assigned)."""
    return requests_from_json(Path(path).read_bytes())
