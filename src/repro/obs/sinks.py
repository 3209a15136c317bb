"""Event sinks: JSONL streaming, and attaching the fold for a block.

A sink is any object with ``emit(event: dict)``.  The one that
aggregates is :class:`~repro.obs.metrics.MetricsSnapshot`;
:func:`collecting` attaches a fresh one for one block (what the
``--profile`` flag and the benchmark harness do).
:class:`JsonlSink` appends one JSON object per event to a file, the
machine-readable artifact behind ``--obs-jsonl`` and
``python -m repro report``.

:func:`load_events` reads a JSONL event file back, validating shape so
a truncated or hand-mangled file fails loudly instead of rendering an
empty report; :func:`request_legs` picks one request's legs out of the
per-slot events that list a batch's requests.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

import orjson

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsSnapshot
from repro.obs.registry import Registry, get_registry

PathLike = Union[str, Path]

_EVENT_TYPES = ("span", "counter", "gauge", "hist")


@contextmanager
def collecting(registry: Optional[Registry] = None) -> Iterator[MetricsSnapshot]:
    """Attach a fresh :class:`~repro.obs.metrics.MetricsSnapshot` for
    the duration of a block.

    >>> from repro import obs
    >>> with obs.collecting() as fold:
    ...     with obs.span("stage"):
    ...         pass
    >>> fold.span_histograms["stage"].count
    1
    """
    registry = registry or get_registry()
    fold = MetricsSnapshot()
    registry.add_sink(fold)
    try:
        yield fold
    finally:
        registry.remove_sink(fold)


class JsonlSink:
    """Streams every event as one JSON line to ``path``.

    The file is truncated on open (a run's event log, not an append
    journal).  Use as a context manager or call :meth:`close`.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self._fh = open(self.path, "wb")
        self.num_events = 0

    def emit(self, event: Dict[str, Any]) -> None:
        self._fh.write(orjson.dumps(event, default=str, option=orjson.OPT_APPEND_NEWLINE))
        self.num_events += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def load_events(path: PathLike) -> List[dict]:
    """Parse an event JSONL file written by :class:`JsonlSink`.

    Blank lines are skipped; anything that is not a JSON object with a
    known ``type`` raises :class:`~repro.errors.ObservabilityError`
    with the offending line number.
    """
    events: List[dict] = []
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ObservabilityError(f"cannot read event file {path}: {exc}") from exc
    for line_number, line in enumerate(data.splitlines(), 1):
        if not line.strip():
            continue
        try:
            event = orjson.loads(line)
        except orjson.JSONDecodeError as exc:
            raise ObservabilityError(
                f"{path}:{line_number}: not valid JSON: {exc}"
            ) from exc
        if not isinstance(event, dict) or event.get("type") not in _EVENT_TYPES:
            raise ObservabilityError(
                f"{path}:{line_number}: not an observability event "
                f"(expected a JSON object with type span|counter|gauge|hist)"
            )
        events.append(event)
    return events


def request_legs(events: Iterable[dict], trace_id: str) -> List[dict]:
    """The events that carry request ``trace_id``, cut down to it.

    A slot emits each request leg (``service.intake``, ``service.lane``,
    ``service.charge_delta``) once for its whole batch, with a ``trace``
    list and the per-request values in lists parallel to it.  Each event
    whose ``trace`` names ``trace_id`` comes back, in stream order, with
    those lists replaced by the request's own entries (the event's
    ``value`` and scalar attrs are the batch's).
    """
    legs: List[dict] = []
    for event in events:
        attrs = event.get("attrs") or {}
        traces = attrs.get("trace")
        if not isinstance(traces, list) or trace_id not in traces:
            continue
        at, width = traces.index(trace_id), len(traces)
        legs.append({**event, "attrs": {
            key: value[at] if isinstance(value, list) and len(value) == width else value
            for key, value in attrs.items()
        }})
    return legs
