"""Event sinks: in-memory aggregation and JSONL streaming.

A sink is any object with ``emit(event: dict)``.  Two are provided:

* :class:`Collector` aggregates in memory — per-span-name timing
  statistics (count/total/min/max plus child time for self-time
  attribution), counter sums, and gauge summaries.  This is what the
  ``--profile`` flag and the benchmark harness attach.
* :class:`JsonlSink` appends one JSON object per event to a file, the
  machine-readable artifact behind ``--obs-jsonl`` and
  ``python -m repro report``.

:func:`collecting` attaches a fresh :class:`Collector` for one block;
:func:`load_events` reads a JSONL event file back, validating shape so
a truncated or hand-mangled file fails loudly instead of rendering an
empty report; :func:`request_legs` picks one request's legs out of the
per-slot events that list a batch's requests.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from repro.errors import ObservabilityError
from repro.obs.registry import Registry, get_registry

PathLike = Union[str, Path]

_EVENT_TYPES = ("span", "counter", "gauge", "hist")


@dataclass
class SpanStat:
    """Aggregated timings for one span name."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0
    #: Seconds spent inside direct child spans (for self-time).
    child_seconds: float = 0.0
    #: How many completions unwound through an exception.
    errors: int = 0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def self_seconds(self) -> float:
        """Time not attributed to any direct child span."""
        return max(0.0, self.total - self.child_seconds)


@dataclass
class CounterStat:
    """Aggregated increments for one counter name."""

    count: int = 0
    total: float = 0.0
    max: float = float("-inf")

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value


@dataclass
class GaugeStat:
    """Summary of one gauge's samples (last value wins for reporting)."""

    count: int = 0
    last: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def add(self, value: float) -> None:
        self.count += 1
        self.last = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value


class Collector:
    """In-memory aggregating sink.

    ``keep_events=True`` additionally retains the raw event dicts (for
    round-trip tests and ad-hoc inspection); aggregation alone is the
    default so long runs stay O(#names), not O(#events).
    """

    def __init__(self, keep_events: bool = False):
        self.spans: Dict[str, SpanStat] = {}
        self.counters: Dict[str, CounterStat] = {}
        self.gauges: Dict[str, GaugeStat] = {}
        self.events: List[dict] = []
        self.num_events = 0
        self._keep_events = keep_events

    def emit(self, event: Dict[str, Any]) -> None:
        self.num_events += 1
        if self._keep_events:
            self.events.append(event)
        kind = event.get("type")
        name = event.get("name", "?")
        if kind == "span":
            stat = self.spans.get(name)
            if stat is None:
                stat = self.spans[name] = SpanStat()
            dur = float(event.get("dur", 0.0))
            stat.count += 1
            stat.total += dur
            if dur < stat.min:
                stat.min = dur
            if dur > stat.max:
                stat.max = dur
            if event.get("error"):
                stat.errors += 1
            parent = event.get("parent")
            if parent is not None:
                pstat = self.spans.get(parent)
                if pstat is None:
                    pstat = self.spans[parent] = SpanStat()
                pstat.child_seconds += dur
        elif kind == "counter":
            stat = self.counters.get(name)
            if stat is None:
                stat = self.counters[name] = CounterStat()
            stat.add(float(event.get("value", 0.0)))
        elif kind == "gauge" or kind == "hist":
            # The batch collector has no bucketed view; histogram
            # samples fold into the same last/min/max aggregate.
            stat = self.gauges.get(name)
            if stat is None:
                stat = self.gauges[name] = GaugeStat()
            stat.add(float(event.get("value", 0.0)))

    def counter_total(self, name: str) -> float:
        """Sum of all increments to ``name`` (0.0 if never incremented)."""
        stat = self.counters.get(name)
        return stat.total if stat else 0.0

    def span_seconds(self, name: str) -> float:
        """Total wall seconds recorded under span ``name``."""
        stat = self.spans.get(name)
        return stat.total if stat else 0.0

    def replay(self, events: Iterable[dict]) -> "Collector":
        """Feed previously captured events through the aggregator."""
        for event in events:
            self.emit(event)
        return self

    def __repr__(self) -> str:
        return (
            f"Collector(events={self.num_events}, spans={len(self.spans)}, "
            f"counters={len(self.counters)}, gauges={len(self.gauges)})"
        )


@contextmanager
def collecting(
    registry: Optional[Registry] = None, keep_events: bool = False
) -> Iterator[Collector]:
    """Attach a fresh :class:`Collector` for the duration of a block.

    >>> from repro import obs
    >>> with obs.collecting() as c:
    ...     with obs.span("stage"):
    ...         pass
    >>> c.spans["stage"].count
    1
    """
    registry = registry or get_registry()
    collector = Collector(keep_events=keep_events)
    registry.add_sink(collector)
    try:
        yield collector
    finally:
        registry.remove_sink(collector)


class JsonlSink:
    """Streams every event as one JSON line to ``path``.

    The file is truncated on open (a run's event log, not an append
    journal).  Use as a context manager or call :meth:`close`.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self._fh = open(self.path, "w")
        self.num_events = 0

    def emit(self, event: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(event, default=str))
        self._fh.write("\n")
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
        text = Path(path).read_text()
    except OSError as exc:
        raise ObservabilityError(f"cannot read event file {path}: {exc}") from exc
    for line_number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
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
