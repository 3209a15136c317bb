"""The daemon's wire protocol: newline-delimited JSON messages.

One request per line, one JSON object per request; responses are also
single lines and always carry ``ok`` plus the request's ``op`` (and
``id`` for per-transfer operations), so a client may pipeline requests
on one connection and match responses out of order.

Operations::

    {"op": "submit", "id": "job-17", "source": 0, "destination": 3,
     "size_gb": 12.5, "deadline_slots": 4}
    {"op": "status", "id": "job-17"}
    {"op": "stats"}
    {"op": "metrics"}                       # live telemetry snapshot
    {"op": "metrics", "format": "prometheus"}
    {"op": "drain"}
    {"op": "tick"}          # only honored when the slot clock is manual
    {"op": "ping"}

A ``submit`` is answered after the slot that batches it is processed
(decision: ``admitted`` or ``rejected``), or immediately with
``{"ok": false, "error": "backpressure", "retry_after_s": ...}`` when
the intake queue is saturated.  ``id`` is the client's idempotency key:
resubmitting a known id returns the recorded decision instead of
scheduling the transfer twice.
"""

from __future__ import annotations

import math
from typing import Any, Dict

import orjson

from repro.errors import ProtocolError
from repro.units import VOLUME_ATOL

#: Version 2 added the ``metrics`` op (live telemetry snapshot with an
#: optional Prometheus-text rendering) and trace-summary fields on
#: ``submit`` responses (``trace``, ``cost_delta``, ``headroom_gb``,
#: ``wall_ts``).  Version 3 added the ``resume`` op of a sharded front
#: end, which is gone: ``resume`` is no longer accepted and is refused
#: as an unknown op, like any name outside :data:`OPS`.  Version-1
#: clients are unaffected.
PROTOCOL_VERSION = 3

#: Operations a client may send; the daemon serves every one of them.
OPS = ("submit", "status", "stats", "metrics", "drain", "tick", "ping")

#: Renderings the ``metrics`` op supports.
METRICS_FORMATS = ("json", "prometheus")

#: Maximum accepted line length (a parse bound, not a data-plane limit —
#: the payload is a description of a transfer, not the transfer itself).
MAX_LINE_BYTES = 64 * 1024


def encode(message: Dict[str, Any]) -> bytes:
    """One protocol message as a newline-terminated JSON line."""
    return orjson.dumps(message, option=orjson.OPT_APPEND_NEWLINE)


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a message dict.

    Raises :class:`ProtocolError` on anything that is not a single JSON
    object with a known ``op`` — the server answers those with an
    ``invalid`` error instead of dropping the connection.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"message exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = orjson.loads(line)
    except orjson.JSONDecodeError as exc:
        raise ProtocolError(f"message is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    op = message.get("op")
    if op not in OPS:
        known = ", ".join(OPS)
        raise ProtocolError(f"unknown op {op!r}; expected one of: {known}")
    return message


def validate_submit(message: Dict[str, Any], max_deadline: int,
                    datacenters: int) -> Dict[str, Any]:
    """Normalize a ``submit`` message's transfer fields.

    Returns ``{"id", "source", "destination", "size_gb",
    "deadline_slots"}`` with coerced types; raises
    :class:`ProtocolError` on missing/invalid fields.  Validation here
    mirrors :class:`~repro.traffic.spec.TransferRequest`'s own invariants,
    plus datacenters ``0 .. datacenters - 1`` and a finite size, so a bad
    submit is refused at the wire instead of failing its whole slot.
    """
    client_id = message.get("id")
    if not isinstance(client_id, str) or not client_id:
        raise ProtocolError("submit needs a non-empty string 'id'")
    try:
        source = int(message["source"])
        destination = int(message["destination"])
        size_gb = float(message["size_gb"])
        deadline = int(message["deadline_slots"])
    except KeyError as exc:
        raise ProtocolError(f"submit missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"submit field is malformed: {exc}") from exc
    if source == destination:
        raise ProtocolError(f"source equals destination ({source})")
    if not (0 <= source < datacenters and 0 <= destination < datacenters):
        raise ProtocolError(
            f"datacenters are 0..{datacenters - 1}, got {source} -> {destination}")
    if not VOLUME_ATOL < size_gb < math.inf:  # schedules drop volumes this small
        raise ProtocolError(
            f"size_gb must be finite and exceed the volume tolerance {VOLUME_ATOL} GB, "
            f"got {size_gb}"
        )
    if deadline < 1:
        raise ProtocolError(f"deadline_slots must be >= 1, got {deadline}")
    if deadline > max_deadline:
        raise ProtocolError(
            f"deadline_slots {deadline} exceeds the service cap {max_deadline}"
        )
    return {
        "id": client_id,
        "source": source,
        "destination": destination,
        "size_gb": size_gb,
        "deadline_slots": deadline,
    }


def error_response(op: str, error: str, message: str, **extra: Any) -> Dict[str, Any]:
    """A failure line: ``{"ok": false, "op", "error", "message", ...}``."""
    response = {"ok": False, "op": op, "error": error, "message": message}
    response.update(extra)
    return response
